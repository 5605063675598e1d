//! The simulated NPU instruction set and per-core programs.
//!
//! This mirrors the IPU-style programming model of §3.1: every tensor and
//! compute vertex is pinned to a specific core (`setTileMapping`), data
//! moves between cores with explicit send/receive (the `Copy` primitive
//! over the on-chip network), and weights stream from global memory via
//! DMA. Core IDs inside instructions are *program-level* ("virtual") IDs;
//! the machine resolves them through the bound router (identity for
//! bare-metal, the vRouter under virtualization).

use vnpu_mem::VirtAddr;

/// A compute kernel with an analytic timing model (see [`crate::compute`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kernel {
    /// Dense matrix multiply `M×K · K×N`.
    Matmul {
        /// Rows of the left operand.
        m: u32,
        /// Contraction dimension.
        k: u32,
        /// Columns of the right operand.
        n: u32,
    },
    /// 2D convolution lowered to im2col matmul.
    Conv {
        /// Input feature-map height (= width; square maps).
        hw: u32,
        /// Input channels.
        in_ch: u32,
        /// Output channels.
        out_ch: u32,
        /// Square kernel size.
        kernel: u32,
        /// Stride.
        stride: u32,
    },
    /// Element-wise vector operation over `elems` elements.
    Vector {
        /// Element count.
        elems: u64,
    },
}

impl Kernel {
    /// Multiply-accumulate count of the kernel (for utilization metrics).
    pub fn macs(&self) -> u64 {
        match *self {
            Kernel::Matmul { m, k, n } => u64::from(m) * u64::from(k) * u64::from(n),
            Kernel::Conv {
                hw,
                in_ch,
                out_ch,
                kernel,
                stride,
            } => {
                let out = out_dim(hw, kernel, stride);
                u64::from(out)
                    * u64::from(out)
                    * u64::from(in_ch)
                    * u64::from(out_ch)
                    * u64::from(kernel)
                    * u64::from(kernel)
            }
            Kernel::Vector { elems } => elems,
        }
    }
}

/// Output spatial dimension of a (valid-padding) convolution.
pub fn out_dim(hw: u32, kernel: u32, stride: u32) -> u32 {
    ((hw.saturating_sub(kernel)) / stride.max(1)) + 1
}

/// One instruction of a per-core program.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Instr {
    /// DMA a weight/input chunk stream from global memory into the
    /// scratchpad.
    DmaLoad {
        /// Guest-virtual source address.
        va: VirtAddr,
        /// Bytes to transfer.
        bytes: u64,
    },
    /// DMA scratchpad contents back to global memory.
    DmaStore {
        /// Guest-virtual destination address.
        va: VirtAddr,
        /// Bytes to transfer.
        bytes: u64,
    },
    /// Occupy the tile's compute units with a kernel.
    Compute(Kernel),
    /// Stream `bytes` over the NoC to program-level core `dst`.
    Send {
        /// Destination core (program-level ID).
        dst: u32,
        /// Payload bytes.
        bytes: u64,
        /// Flow tag for matching the receive.
        tag: u32,
    },
    /// Block until `bytes` tagged `tag` have arrived from program-level
    /// core `src`.
    Recv {
        /// Source core (program-level ID).
        src: u32,
        /// Payload bytes expected.
        bytes: u64,
        /// Flow tag.
        tag: u32,
    },
    /// UVM-baseline producer: write an activation to global memory and
    /// publish it under `tag` (memory-synchronization broadcast).
    GlobalWrite {
        /// Guest-virtual destination.
        va: VirtAddr,
        /// Bytes written.
        bytes: u64,
        /// Publication tag.
        tag: u32,
    },
    /// UVM-baseline consumer: wait for `tag` then read `bytes` from global
    /// memory.
    GlobalRead {
        /// Guest-virtual source.
        va: VirtAddr,
        /// Bytes read.
        bytes: u64,
        /// Publication tag.
        tag: u32,
    },
    /// Synchronize all threads of the same tenant carrying the same id.
    Barrier {
        /// Barrier identifier.
        id: u32,
    },
    /// Idle for a fixed number of cycles (testing / modelling fixed work).
    Delay {
        /// Cycles to stall.
        cycles: u64,
    },
}

impl Instr {
    /// Convenience constructor for [`Instr::Send`].
    pub fn send(dst: u32, bytes: u64, tag: u32) -> Self {
        Instr::Send { dst, bytes, tag }
    }

    /// Convenience constructor for [`Instr::Recv`].
    pub fn recv(src: u32, bytes: u64, tag: u32) -> Self {
        Instr::Recv { src, bytes, tag }
    }

    /// Convenience constructor for [`Instr::DmaLoad`].
    pub fn dma_load(va: u64, bytes: u64) -> Self {
        Instr::DmaLoad {
            va: VirtAddr(va),
            bytes,
        }
    }

    /// Convenience constructor for [`Instr::Compute`] with a matmul.
    pub fn matmul(m: u32, k: u32, n: u32) -> Self {
        Instr::Compute(Kernel::Matmul { m, k, n })
    }
}

/// A per-core program: a prelude executed once (weight loading — its
/// completion defines the warm-up time of Figure 16), then a body repeated
/// `iterations` times (the steady-state loop of the ML task).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Program {
    /// Instructions run once before the loop (typically `DmaLoad`s).
    pub prelude: Vec<Instr>,
    /// Instructions repeated every iteration.
    pub body: Vec<Instr>,
    /// Number of body iterations.
    pub iterations: u32,
    /// Declared scratchpad footprint in bytes (validated at bind time).
    pub footprint_bytes: u64,
}

impl Program {
    /// A program with an empty prelude that runs `body` exactly once.
    pub fn once(body: Vec<Instr>) -> Self {
        Program {
            prelude: Vec::new(),
            body,
            iterations: 1,
            footprint_bytes: 0,
        }
    }

    /// A program with a prelude and a repeated body.
    pub fn looped(prelude: Vec<Instr>, body: Vec<Instr>, iterations: u32) -> Self {
        Program {
            prelude,
            body,
            iterations,
            footprint_bytes: 0,
        }
    }

    /// Sets the declared scratchpad footprint (builder style).
    pub fn with_footprint(mut self, bytes: u64) -> Self {
        self.footprint_bytes = bytes;
        self
    }

    /// Whether the program contains no instructions at all.
    pub fn is_empty(&self) -> bool {
        self.prelude.is_empty() && (self.body.is_empty() || self.iterations == 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_macs() {
        assert_eq!(Kernel::Matmul { m: 2, k: 3, n: 4 }.macs(), 24);
        // 3x3 conv, 32x32 input, 16->16 channels, stride 1: 30x30 output.
        let c = Kernel::Conv {
            hw: 32,
            in_ch: 16,
            out_ch: 16,
            kernel: 3,
            stride: 1,
        };
        assert_eq!(c.macs(), 30 * 30 * 16 * 16 * 9);
    }

    #[test]
    fn out_dim_math() {
        assert_eq!(out_dim(32, 3, 1), 30);
        assert_eq!(out_dim(32, 3, 2), 15);
        assert_eq!(out_dim(7, 7, 1), 1);
        assert_eq!(out_dim(2, 3, 1), 1); // saturating
    }

    #[test]
    fn program_counts() {
        let p = Program::looped(
            vec![Instr::dma_load(0, 1024)],
            vec![Instr::matmul(8, 8, 8), Instr::send(1, 64, 0)],
            10,
        );
        assert!(!p.is_empty());
    }

    #[test]
    fn empty_program() {
        assert!(Program::default().is_empty());
        assert!(Program::once(vec![]).is_empty());
        let no_iters = Program::looped(vec![], vec![Instr::Delay { cycles: 1 }], 0);
        assert!(no_iters.is_empty());
    }
}
