//! Figure outputs, pinned byte for byte.
//!
//! Every evaluation binary is seeded, so its stdout is a pure function of
//! the code. Each test here runs one `run_all` roster binary at the quick
//! repetition count (`3` where the roster passes one) and compares its
//! stdout with the snapshot under `tests/data/figures/`. A change that
//! moves a number fails here and shows the moved lines; if the move is
//! intended, regenerate the snapshot with the command the failure prints
//! and explain the diff. `fig24_latency` prints wall-clock times and is
//! not pinned.

use std::path::PathBuf;
use std::process::Command;

/// Runs `exe` with `args` and compares its stdout with the snapshot of
/// `bin`.
fn check(bin: &str, exe: &str, args: &[&str]) {
    let out = Command::new(exe)
        .args(args)
        .output()
        .unwrap_or_else(|e| panic!("launching {bin}: {e}"));
    assert!(
        out.status.success(),
        "{bin} exited with {:?}:\n{}",
        out.status.code(),
        String::from_utf8_lossy(&out.stderr)
    );
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/data/figures")
        .join(format!("{bin}.txt"));
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("reading {}: {e}", path.display()));
    let actual = String::from_utf8(out.stdout).expect("figure output is UTF-8");
    if actual == expected {
        return;
    }
    let mut diff = String::new();
    let (mut old, mut new) = (expected.lines(), actual.lines());
    for line in 1.. {
        match (old.next(), new.next()) {
            (None, None) => break,
            (a, b) if a == b => {}
            (a, b) => diff.push_str(&format!(
                "  line {line}:\n    snapshot: {}\n    now:      {}\n",
                a.unwrap_or("<missing>"),
                b.unwrap_or("<missing>")
            )),
        }
    }
    let args = match args {
        [] => String::new(),
        _ => format!(" -- {}", args.join(" ")),
    };
    panic!(
        "{bin} output differs from its snapshot:\n{diff}\
         If the change is intended, regenerate it from the repository root with\n  \
         cargo run --release -p experiments --bin {bin}{args} > tests/data/figures/{bin}.txt\n\
         and say in CHANGES.md why the numbers moved."
    );
}

macro_rules! snapshot {
    ($($bin:ident $(: $reps:literal)?),* $(,)?) => {$(
        #[test]
        fn $bin() {
            check(
                stringify!($bin),
                env!(concat!("CARGO_BIN_EXE_", stringify!($bin))),
                &[$($reps)?],
            );
        }
    )*};
}

snapshot! {
    fig02_observations,
    fig03_theory,
    fig04_tag_diversity,
    fig05_deviation_bias,
    fig06_unwrap,
    fig07_graymap,
    fig08_phase_trends,
    fig09_letter_h,
    fig11_pair_interference,
    fig12_array_interference,
    table1_los_nlos: "3",
    fig16_environments: "3",
    fig17_tx_power: "3",
    fig18_angle: "3",
    fig19_distance: "3",
    fig20_users: "3",
    fig21_time_cdf: "3",
    fig22_segmentation: "3",
    fig23_letters: "3",
    fig25_trajectory,
    coexistence,
    two_pads,
    hopping: "3",
    ablation_direction: "3",
    resilience: "3",
    letters_confusion: "3",
}
