//! `trace_tool record` refuses a letter argument that is not one ASCII
//! letter: it prints the usage and exits 1 before calibrating anything,
//! instead of panicking inside the writer.

use std::process::Command;

#[test]
fn record_refuses_a_letter_argument_that_is_not_a_letter() {
    let out = std::env::temp_dir().join(format!(
        "rfipad-trace-tool-cli-{}.rftrace",
        std::process::id()
    ));
    for letter in ["7", "ab", "é", ""] {
        let run = Command::new(env!("CARGO_BIN_EXE_trace_tool"))
            .arg("record")
            .arg(&out)
            .arg(letter)
            .output()
            .expect("trace_tool runs");
        let stderr = String::from_utf8_lossy(&run.stderr);
        assert_eq!(run.status.code(), Some(1), "{letter:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{letter:?}: {stderr}");
        assert!(
            stderr.contains("usage: trace_tool record"),
            "{letter:?}: {stderr}"
        );
        assert!(!out.exists(), "{letter:?} wrote a trace");
    }
}
