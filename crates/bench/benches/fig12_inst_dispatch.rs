//! Thin bench entry point; the scenario lives in
//! [`vnpu_bench::figs::fig12_inst_dispatch`] so `tests/benches_smoke.rs` can run it at
//! tiny scale under `cargo test`. Pass `-- --quick` for the same fast
//! mode here.

fn main() {
    vnpu_bench::figs::fig12_inst_dispatch::run(vnpu_bench::quick_from_env());
}
