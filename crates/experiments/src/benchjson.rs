//! Line-oriented merge for `BENCH_pipeline.json`.
//!
//! The perf-trajectory file is written wholesale by `bench_pipeline` and
//! then enriched by probes that each own one top-level key
//! (`engine_bench` → `ingest_batch`, `trace_tool stats --bench` →
//! `telemetry_overhead`). Because the vendored serde is a no-op shim, the
//! merge is textual: the file is kept one top-level key per line, and
//! [`merge_entry`] replaces that key's line while leaving every other
//! probe's line untouched.

use std::io;
use std::path::Path;

/// The perf-trajectory file all probes share.
pub const BENCH_PATH: &str = "BENCH_pipeline.json";

/// Merges `"key": entry,` into the JSON object at `path`, replacing any
/// previous line for `key` and preserving all other lines. Creates the
/// file as `{ "key": entry }` when it does not exist.
///
/// # Errors
///
/// Propagates the underlying filesystem errors.
pub fn merge_entry_at(path: &Path, key: &str, entry: &str) -> io::Result<()> {
    let line = format!("  \"{key}\": {entry},");
    let marker = format!("\"{key}\"");
    let merged = match std::fs::read_to_string(path) {
        Ok(existing) => {
            let mut lines: Vec<String> = existing
                .lines()
                .filter(|l| !l.trim_start().starts_with(&marker))
                .map(String::from)
                .collect();
            let at = if lines.first().map(|l| l.trim() == "{").unwrap_or(false) {
                1
            } else {
                lines.insert(0, "{".into());
                lines.push("}".into());
                1
            };
            lines.insert(at, line);
            lines.join("\n") + "\n"
        }
        Err(_) => format!("{{\n{}\n}}\n", line.trim_end_matches(',')),
    };
    std::fs::write(path, merged)
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
        let _ = std::fs::remove_file(&path);
    }
}
