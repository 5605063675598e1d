//! The paper's figures, pinned. Every figure, table and ablation in
//! `vnpu_bench::figs::ALL` runs at paper scale — asserting the paper's
//! claims as it goes — and their concatenated output must equal the
//! committed `FIGURES.txt` byte for byte, so a change that moves any
//! reproduced number shows up here and as a `git diff` of the ledger.

use vnpu_bench::figs::ALL;

const LEDGER: &str = include_str!("../FIGURES.txt");

#[test]
fn figures_match_the_ledger() {
    let mut rest = LEDGER;
    for (name, run) in ALL {
        let rendered = run();
        if let Some(tail) = rest.strip_prefix(rendered.as_str()) {
            rest = tail;
            continue;
        }
        // The ledger line this figure starts on.
        let line = LEDGER[..LEDGER.len() - rest.len()].lines().count() + 1;
        let mut ledger = rest.lines();
        let (offset, got, want) = rendered
            .lines()
            .map(Some)
            .chain([None])
            .enumerate()
            .map(|(i, got)| (i, got, ledger.next()))
            .find(|(_, got, want)| got != want)
            .expect("a figure that is no prefix of the ledger differs in some line");
        panic!(
            "{name} differs from FIGURES.txt at line {}:\n  rendered: {}\n  ledger:   {}\n\
             If the change is meant, regenerate the ledger with \
             `cargo run --release -p vnpu_bench --bin figs > FIGURES.txt` and say why in \
             CHANGES.md.",
            line + offset,
            got.unwrap_or("<end of figure>"),
            want.unwrap_or("<end of ledger>"),
        );
    }
    assert!(
        rest.is_empty(),
        "FIGURES.txt continues past the last figure: {:?}",
        rest.lines().next()
    );
}
