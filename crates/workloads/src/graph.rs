//! The [`ModelGraph`] representation: a DAG of layers in topological
//! order, each with an analytic kernel (timing), resident weight bytes and
//! activation output bytes.

use crate::{Result, WorkloadError};
use vnpu_sim::isa::Kernel;

/// Index of a layer inside its [`ModelGraph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LayerId(pub u32);

impl LayerId {
    /// The layer index as `usize`.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for LayerId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "L{}", self.0)
    }
}

/// Functional category of a layer (used for reporting, not timing).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LayerKind {
    /// Convolution.
    Conv,
    /// Fully-connected / linear.
    Fc,
    /// Attention score/context matmuls.
    Attention,
    /// Normalization / activation / element-wise.
    Elementwise,
    /// Embedding lookup.
    Embed,
    /// Pooling.
    Pool,
}

/// One layer of a model graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Layer {
    /// Human-readable name ("conv2_1", "blk3.ffn1").
    pub name: String,
    /// Category.
    pub kind: LayerKind,
    /// Timing kernel executed on the owning core.
    pub kernel: Kernel,
    /// Weight bytes that must be resident in the owning core's scratchpad.
    pub weight_bytes: u64,
    /// Bytes of the layer's output activation (what gets forwarded).
    pub out_bytes: u64,
    /// Layers whose outputs this layer consumes (must be earlier).
    pub deps: Vec<LayerId>,
}

/// A model as a topologically-ordered layer DAG.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ModelGraph {
    name: String,
    layers: Vec<Layer>,
}

impl ModelGraph {
    /// Creates a graph, validating that every dependency points to an
    /// earlier layer (topological order by construction).
    ///
    /// # Errors
    ///
    /// [`WorkloadError::EmptyModel`] or [`WorkloadError::BadDependency`].
    pub fn new(name: impl Into<String>, layers: Vec<Layer>) -> Result<Self> {
        if layers.is_empty() {
            return Err(WorkloadError::EmptyModel);
        }
        for (i, l) in layers.iter().enumerate() {
            for d in &l.deps {
                if d.index() >= i {
                    return Err(WorkloadError::BadDependency { layer: i as u32 });
                }
            }
        }
        Ok(ModelGraph {
            name: name.into(),
            layers,
        })
    }

    /// The model's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Layers in topological order.
    pub fn layers(&self) -> &[Layer] {
        &self.layers
    }

    /// Number of layers.
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// Whether the graph is empty (never true after construction).
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }

    /// Layer by ID.
    pub fn layer(&self, id: LayerId) -> &Layer {
        &self.layers[id.index()]
    }

    /// Total resident weight bytes.
    pub fn total_weight_bytes(&self) -> u64 {
        self.layers.iter().map(|l| l.weight_bytes).sum()
    }

    /// For each layer, the list of layers that consume its output.
    pub fn consumers(&self) -> Vec<Vec<LayerId>> {
        let mut out = vec![Vec::new(); self.layers.len()];
        for (i, l) in self.layers.iter().enumerate() {
            for d in &l.deps {
                out[d.index()].push(LayerId(i as u32));
            }
        }
        out
    }
}

/// Builder convenience for assembling layer vectors.
#[derive(Debug, Default)]
pub struct GraphBuilder {
    layers: Vec<Layer>,
}

impl GraphBuilder {
    /// New empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a layer and returns its ID.
    pub fn push(
        &mut self,
        name: impl Into<String>,
        kind: LayerKind,
        kernel: Kernel,
        weight_bytes: u64,
        out_bytes: u64,
        deps: Vec<LayerId>,
    ) -> LayerId {
        let id = LayerId(self.layers.len() as u32);
        self.layers.push(Layer {
            name: name.into(),
            kind,
            kernel,
            weight_bytes,
            out_bytes,
            deps,
        });
        id
    }

    /// Appends a layer depending on the previous one (chain style).
    pub fn chain(
        &mut self,
        name: impl Into<String>,
        kind: LayerKind,
        kernel: Kernel,
        weight_bytes: u64,
        out_bytes: u64,
    ) -> LayerId {
        let deps = if self.layers.is_empty() {
            vec![]
        } else {
            vec![LayerId(self.layers.len() as u32 - 1)]
        };
        self.push(name, kind, kernel, weight_bytes, out_bytes, deps)
    }

    /// Finalizes the graph.
    ///
    /// # Errors
    ///
    /// Propagates [`ModelGraph::new`] validation failures.
    pub fn build(self, name: impl Into<String>) -> Result<ModelGraph> {
        ModelGraph::new(name, self.layers)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The models' tests read a graph's compute through this sum; the
    // compiler and the simulator read each layer's `Kernel` instead.
    impl ModelGraph {
        /// Total multiply-accumulates of one inference.
        pub(crate) fn total_macs(&self) -> u64 {
            self.layers.iter().map(|l| l.kernel.macs()).sum()
        }
    }

    fn k() -> Kernel {
        Kernel::Matmul { m: 8, k: 8, n: 8 }
    }

    #[test]
    fn builder_chain() {
        let mut b = GraphBuilder::new();
        b.chain("a", LayerKind::Fc, k(), 128, 64);
        b.chain("b", LayerKind::Fc, k(), 128, 64);
        let g = b.build("m").unwrap();
        assert_eq!(g.len(), 2);
        assert_eq!(g.total_macs(), 1024);
        assert_eq!(g.total_weight_bytes(), 256);
    }

    #[test]
    fn consumers_inverted_index() {
        let mut b = GraphBuilder::new();
        let a = b.chain("a", LayerKind::Conv, k(), 0, 64);
        let c1 = b.push("b1", LayerKind::Conv, k(), 0, 64, vec![a]);
        let c2 = b.push("b2", LayerKind::Conv, k(), 0, 64, vec![a]);
        b.push("join", LayerKind::Elementwise, k(), 0, 64, vec![c1, c2]);
        let g = b.build("m").unwrap();
        let cons = g.consumers();
        assert_eq!(cons[0], vec![LayerId(1), LayerId(2)]);
        assert_eq!(cons[1], vec![LayerId(3)]);
        assert_eq!(cons[3], Vec::<LayerId>::new());
    }

    #[test]
    fn forward_dependency_rejected() {
        let layers = vec![Layer {
            name: "bad".into(),
            kind: LayerKind::Fc,
            kernel: k(),
            weight_bytes: 0,
            out_bytes: 0,
            deps: vec![LayerId(0)], // self-dependency
        }];
        assert!(matches!(
            ModelGraph::new("m", layers),
            Err(WorkloadError::BadDependency { layer: 0 })
        ));
    }

    #[test]
    fn empty_rejected() {
        assert!(matches!(
            ModelGraph::new("m", vec![]),
            Err(WorkloadError::EmptyModel)
        ));
    }
}
