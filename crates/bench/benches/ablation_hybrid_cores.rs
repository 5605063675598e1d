//! Thin bench entry point; the scenario lives in
//! [`vnpu_bench::figs::ablation_hybrid_cores`] so `tests/benches_smoke.rs` can run it at
//! tiny scale under `cargo test`. Pass `-- --quick` for the same fast
//! mode here.

fn main() {
    vnpu_bench::figs::ablation_hybrid_cores::run(vnpu_bench::quick_from_env());
}
