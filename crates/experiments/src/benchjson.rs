//! Line-oriented merge for `BENCH_pipeline.json`.
//!
//! Each probe owns top-level keys of the file and merges them in:
//! `kernel_bench` its allocation and work gates (`hot_path_allocs`,
//! `tick_frames`, …), `load_gen` `serve_loopback` and
//! `serve_e2e_latency`, and `trace_tool stats --bench`
//! `telemetry_overhead`. The merge is textual: the file is kept one
//! top-level key per line, and [`merge_entry`] replaces that key's line
//! while leaving every other probe's line untouched. Every merge rewrites
//! the separators, so the file is always strict JSON.

use std::io;
use std::path::Path;

/// The perf-trajectory file all probes share.
pub const BENCH_PATH: &str = "BENCH_pipeline.json";

/// Merges `"key": entry` into the JSON object at `path` as its first
/// member, replacing any previous line for `key` and preserving all other
/// lines. Creates the file as `{ "key": entry }` when it does not exist.
///
/// # Errors
///
/// Propagates the underlying filesystem errors.
pub fn merge_entry_at(path: &Path, key: &str, entry: &str) -> io::Result<()> {
    let existing = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(e) if e.kind() == io::ErrorKind::NotFound => String::new(),
        Err(e) => return Err(e),
    };
    let marker = format!("\"{key}\"");
    let mut members = vec![format!("  \"{key}\": {entry}")];
    members.extend(
        existing
            .lines()
            .map(|l| l.trim_end().trim_end_matches(','))
            .filter(|l| !matches!(l.trim(), "" | "{" | "}"))
            .filter(|l| !l.trim_start().starts_with(&marker))
            .map(String::from),
    );
    std::fs::write(path, format!("{{\n{}\n}}\n", members.join(",\n")))
}

/// [`merge_entry_at`] against [`BENCH_PATH`] in the current directory.
///
/// # Errors
///
/// Propagates the underlying filesystem errors.
pub fn merge_entry(key: &str, entry: &str) -> io::Result<()> {
    merge_entry_at(Path::new(BENCH_PATH), key, entry)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("rfipad-benchjson-tests");
        std::fs::create_dir_all(&dir).expect("scratch dir");
        dir.join(name)
    }

    #[test]
    fn creates_then_replaces_and_preserves_other_keys() {
        let path = scratch("merge.json");
        let _ = std::fs::remove_file(&path);
        merge_entry_at(&path, "alpha", "{ \"x\": 1 }").expect("create");
        merge_entry_at(&path, "beta", "{ \"y\": 2 }").expect("add");
        merge_entry_at(&path, "alpha", "{ \"x\": 3 }").expect("replace");
        let text = std::fs::read_to_string(&path).expect("read back");
        assert_eq!(text.matches("\"alpha\"").count(), 1);
        assert!(text.contains("\"x\": 3"));
        assert!(text.contains("\"y\": 2"));
        assert!(text.starts_with("{\n"));
        assert!(text.trim_end().ends_with('}'));
        // Re-merging a key must leave no separator behind: the file stays
        // strict JSON, newest key first.
        let members = obs::json::parse(&text)
            .and_then(|v| v.into_object())
            .unwrap_or_else(|e| panic!("merged file is not strict JSON: {e}\n{text}"));
        let keys: Vec<&str> = members.iter().map(|(k, _)| k.as_ref()).collect();
        assert_eq!(keys, ["alpha", "beta"]);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn wraps_bare_content_in_an_object() {
        let path = scratch("bare.json");
        std::fs::write(&path, "  \"legacy\": 1,\n").expect("seed file");
        merge_entry_at(&path, "fresh", "2").expect("merge");
        let text = std::fs::read_to_string(&path).expect("read back");
        assert!(text.starts_with("{\n"));
        assert!(text.contains("\"legacy\": 1"));
        assert!(text.contains("\"fresh\": 2"));
        obs::json::parse(&text).expect("wrapped file is strict JSON");
        let _ = std::fs::remove_file(&path);
    }
}
