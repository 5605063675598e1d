//! **vnpu_conc** — an empty crate, kept only for its manifest edges.
//!
//! It held the serve loop's per-phase determinism digest chain. Two runs
//! that must agree are now compared on the one record a run keeps, its
//! `vnpu_temporal::TraceEvent` stream, so the chain and its `CONC-DET`
//! rule are gone. The crate stays because the workspace manifest, the
//! manifests of `vnpu`, `vnpu_topo`, `vnpu_audit`, `vnpu_serve` and
//! `vnpu_bench`, and the benchmark package's lock file still name it;
//! dropping those edges moves the benchmark's lock file, so it belongs
//! with the next benchmark-only change, which deletes this crate.
