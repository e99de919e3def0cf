//! Exposition sinks: Prometheus-style text, JSON, and a format validator.
//!
//! The text format follows the Prometheus 0.0.4 exposition conventions:
//! `# HELP` / `# TYPE` headers per family, label values escaped (`\\`,
//! `\"`, `\n`), histograms expanded into cumulative `_bucket{le="..."}`
//! series plus `_sum` and `_count`. The JSON sink carries the same data
//! plus the exact-percentile fields (p50/p90/p99/max) that the text format
//! has no standard slot for. Both renderings are hand-rolled here, as
//! `rfid_gen2::trace` does for trace files.

use crate::json;
use crate::registry::{valid_label_name, valid_metric_name, Metric, Registry};
use std::collections::BTreeSet;
use std::fmt::Write as _;

/// Escapes a label value for the text exposition: `\` → `\\`, `"` → `\"`,
/// newline → `\n`.
pub fn escape_label_value(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// Escapes a `# HELP` text: `\` → `\\`, newline → `\n`.
fn escape_help(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

fn render_labels(out: &mut String, labels: &[(String, String)], extra: Option<(&str, &str)>) {
    if labels.is_empty() && extra.is_none() {
        return;
    }
    out.push('{');
    let mut first = true;
    for (k, v) in labels {
        if !first {
            out.push(',');
        }
        first = false;
        let _ = write!(out, "{k}=\"{}\"", escape_label_value(v));
    }
    if let Some((k, v)) = extra {
        if !first {
            out.push(',');
        }
        let _ = write!(out, "{k}=\"{}\"", escape_label_value(v));
    }
    out.push('}');
}

fn format_le(le: f64) -> String {
    if le.is_infinite() {
        "+Inf".to_string()
    } else if le.fract() == 0.0 {
        format!("{}", le as u64)
    } else {
        format!("{le}")
    }
}

impl Registry {
    /// Renders the whole registry in the Prometheus text format.
    pub fn render_prometheus(&self) -> String {
        let families = self.families.lock().expect("registry poisoned");
        let mut out = String::new();
        for (name, family) in families.iter() {
            if family.series.is_empty() {
                continue;
            }
            let _ = writeln!(out, "# HELP {name} {}", escape_help(&family.help));
            let _ = writeln!(out, "# TYPE {name} {}", family.kind.as_str());
            for (labels, metric) in &family.series {
                match metric {
                    Metric::Counter(c) => {
                        out.push_str(name);
                        render_labels(&mut out, labels, None);
                        let _ = writeln!(out, " {}", c.get());
                    }
                    Metric::Gauge(g) => {
                        out.push_str(name);
                        render_labels(&mut out, labels, None);
                        let _ = writeln!(out, " {}", g.get());
                    }
                    Metric::Histogram(h) => {
                        let snap = h.snapshot();
                        for (le, cumulative) in &snap.buckets {
                            let _ = write!(out, "{name}_bucket");
                            render_labels(&mut out, labels, Some(("le", &format_le(*le))));
                            let _ = writeln!(out, " {cumulative}");
                        }
                        let _ = write!(out, "{name}_sum");
                        render_labels(&mut out, labels, None);
                        let _ = writeln!(out, " {}", snap.sum);
                        let _ = write!(out, "{name}_count");
                        render_labels(&mut out, labels, None);
                        let _ = writeln!(out, " {}", snap.count);
                    }
                }
            }
        }
        out
    }

    /// Renders the whole registry as a JSON object:
    /// `{"<family>": {"type", "help", "series": [{"labels", ...}]}}`.
    /// Histogram series carry exact `p50`/`p90`/`p99`/`max` alongside the
    /// buckets; `le` is a string (`"+Inf"` for the overflow bucket) since
    /// JSON has no infinity literal.
    pub fn render_json(&self) -> String {
        let families = self.families.lock().expect("registry poisoned");
        let mut out = String::from("{");
        let mut first_family = true;
        for (name, family) in families.iter() {
            if family.series.is_empty() {
                continue;
            }
            if !first_family {
                out.push(',');
            }
            first_family = false;
            let _ = write!(
                out,
                "\"{}\":{{\"type\":\"{}\",\"help\":\"{}\",\"series\":[",
                json::escape(name),
                family.kind.as_str(),
                json::escape(&family.help)
            );
            let mut first_series = true;
            for (labels, metric) in &family.series {
                if !first_series {
                    out.push(',');
                }
                first_series = false;
                out.push_str("{\"labels\":{");
                let mut first_label = true;
                for (k, v) in labels {
                    if !first_label {
                        out.push(',');
                    }
                    first_label = false;
                    let _ = write!(out, "\"{}\":\"{}\"", json::escape(k), json::escape(v));
                }
                out.push('}');
                match metric {
                    Metric::Counter(c) => {
                        let _ = write!(out, ",\"value\":{}", c.get());
                    }
                    Metric::Gauge(g) => {
                        let _ = write!(out, ",\"value\":{}", g.get());
                    }
                    Metric::Histogram(h) => {
                        let snap = h.snapshot();
                        let _ = write!(
                            out,
                            ",\"count\":{},\"sum\":{},\"max\":{},\"p50\":{},\"p90\":{},\"p99\":{},\"buckets\":[",
                            snap.count, snap.sum, snap.max, snap.p50, snap.p90, snap.p99
                        );
                        let mut first_bucket = true;
                        for (le, cumulative) in &snap.buckets {
                            if !first_bucket {
                                out.push(',');
                            }
                            first_bucket = false;
                            let _ = write!(
                                out,
                                "{{\"le\":\"{}\",\"count\":{cumulative}}}",
                                format_le(*le)
                            );
                        }
                        out.push(']');
                    }
                }
                out.push('}');
            }
            out.push_str("]}");
        }
        out.push('}');
        out
    }
}

/// Checks a Prometheus text exposition for well-formedness: metric and
/// label names match the allowed charsets, label values are properly
/// quoted/escaped, sample values parse as numbers, and no
/// `(name, label set)` series appears twice.
///
/// # Errors
///
/// Returns `Err` with a line number and description for the first
/// violation found.
pub fn validate(text: &str) -> Result<(), String> {
    let mut seen: BTreeSet<String> = BTreeSet::new();
    for (idx, line) in text.lines().enumerate() {
        let lineno = idx + 1;
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# ") {
            if let Some(body) = rest
                .strip_prefix("HELP ")
                .or_else(|| rest.strip_prefix("TYPE "))
            {
                let name = body.split_whitespace().next().unwrap_or("");
                if !valid_metric_name(name) {
                    return Err(format!("line {lineno}: bad metric name {name:?} in header"));
                }
                if rest.starts_with("TYPE ") {
                    let kind = body.split_whitespace().nth(1).unwrap_or("");
                    if !matches!(
                        kind,
                        "counter" | "gauge" | "histogram" | "summary" | "untyped"
                    ) {
                        return Err(format!("line {lineno}: unknown TYPE {kind:?}"));
                    }
                }
            }
            continue;
        }
        if line.starts_with('#') {
            continue; // other comment
        }
        let (series, value) = parse_sample(line).map_err(|e| format!("line {lineno}: {e}"))?;
        if value.parse::<f64>().is_err() && !matches!(value, "+Inf" | "-Inf" | "NaN") {
            return Err(format!("line {lineno}: unparseable value {value:?}"));
        }
        if !seen.insert(series.clone()) {
            return Err(format!("line {lineno}: duplicate series {series}"));
        }
    }
    Ok(())
}

/// Parses one sample line into a normalized `(name{sorted labels})` key and
/// the value text.
fn parse_sample(line: &str) -> Result<(String, &str), String> {
    let name_end = line.find(['{', ' ']).ok_or("missing value")?;
    let name = &line[..name_end];
    if !valid_metric_name(name) {
        return Err(format!("bad metric name {name:?}"));
    }
    let mut labels: Vec<(String, String)> = Vec::new();
    let rest = if line[name_end..].starts_with('{') {
        let mut chars = line[name_end + 1..].char_indices().peekable();
        let body_start = name_end + 1;
        let pos;
        loop {
            // label name
            let start = match chars.peek() {
                Some(&(i, '}')) => {
                    pos = body_start + i + 1;
                    break;
                }
                Some(&(i, _)) => i,
                None => return Err("unterminated label set".into()),
            };
            let mut eq = None;
            for (i, c) in chars.by_ref() {
                if c == '=' {
                    eq = Some(i);
                    break;
                }
            }
            let eq = eq.ok_or("label without '='")?;
            let label = &line[body_start + start..body_start + eq];
            if !valid_label_name(label) {
                return Err(format!("bad label name {label:?}"));
            }
            match chars.next() {
                Some((_, '"')) => {}
                _ => return Err(format!("label {label:?} value not quoted")),
            }
            let mut value = String::new();
            let mut closed = false;
            while let Some((_, c)) = chars.next() {
                match c {
                    '\\' => match chars.next() {
                        Some((_, '\\')) => value.push('\\'),
                        Some((_, '"')) => value.push('"'),
                        Some((_, 'n')) => value.push('\n'),
                        other => return Err(format!("bad escape {other:?} in label value")),
                    },
                    '"' => {
                        closed = true;
                        break;
                    }
                    c => value.push(c),
                }
            }
            if !closed {
                return Err("unterminated label value".into());
            }
            labels.push((label.to_string(), value));
            match chars.peek() {
                Some(&(_, ',')) => {
                    chars.next();
                }
                Some(&(_, '}')) => {}
                other => return Err(format!("expected ',' or '}}', got {other:?}")),
            }
        }
        &line[pos..]
    } else {
        &line[name_end..]
    };
    let value = rest.trim_start();
    if value.is_empty() {
        return Err("missing value".into());
    }
    // Timestamps (a second field) are legal in the format; take field one.
    let value = value.split_whitespace().next().expect("nonempty");
    labels.sort();
    let mut key = String::from(name);
    key.push('{');
    for (i, (k, v)) in labels.iter().enumerate() {
        if i > 0 {
            key.push(',');
        }
        let _ = write!(key, "{k}={v:?}");
    }
    key.push('}');
    Ok((key, value))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::DEFAULT_DURATION_BOUNDS_NS;

    fn sample_registry() -> Registry {
        let r = Registry::new();
        r.counter("reads_total", "Total reads.", &[("source", "live")])
            .add(7);
        r.gauge("queue_depth", "Depth.", &[("session", "kiosk-1")])
            .set(3);
        r.histogram(
            "stage_duration_ns",
            "Stage time.",
            &[("stage", "framing")],
            DEFAULT_DURATION_BOUNDS_NS,
        )
        .record(42);
        r
    }

    #[test]
    fn prometheus_rendering_validates() {
        let text = sample_registry().render_prometheus();
        assert!(text.contains("# HELP reads_total Total reads."));
        assert!(text.contains("# TYPE stage_duration_ns histogram"));
        assert!(text.contains("reads_total{source=\"live\"} 7"));
        assert!(text.contains("stage_duration_ns_bucket{stage=\"framing\",le=\"50\"} 1"));
        assert!(text.contains("stage_duration_ns_bucket{stage=\"framing\",le=\"+Inf\"} 1"));
        assert!(text.contains("stage_duration_ns_sum{stage=\"framing\"} 42"));
        assert!(text.contains("stage_duration_ns_count{stage=\"framing\"} 1"));
        validate(&text).expect("well-formed");
    }

    #[test]
    fn label_values_are_escaped_and_revalidate() {
        let r = Registry::new();
        r.counter(
            "odd_total",
            "Help with \\ and\nnewline.",
            &[("path", "a\\b \"quoted\"\nline")],
        )
        .inc();
        let text = r.render_prometheus();
        assert!(
            text.contains(r#"odd_total{path="a\\b \"quoted\"\nline"} 1"#),
            "escaped: {text}"
        );
        // Header newline is escaped so the document stays line-oriented.
        assert!(text.contains("# HELP odd_total Help with \\\\ and\\nnewline."));
        validate(&text).expect("escaped exposition parses");
    }

    #[test]
    fn validate_rejects_duplicates_and_malformed_lines() {
        assert!(validate("ok_total 1\nok_total 2").is_err(), "duplicate");
        assert!(
            validate("ok_total{a=\"1\"} 1\nok_total{a=\"2\"} 1").is_ok(),
            "distinct labels are distinct series"
        );
        assert!(validate("bad-name 1").is_err());
        assert!(validate("ok_total{bad-label=\"1\"} 1").is_err());
        assert!(validate("ok_total{a=1} 1").is_err(), "unquoted value");
        assert!(validate("ok_total{a=\"1\"} oops").is_err(), "bad value");
        assert!(validate("ok_total{a=\"unterminated} 1").is_err());
        assert!(validate("# TYPE x widget").is_err());
        assert!(validate("").is_ok());
    }

    #[test]
    fn duplicate_detection_ignores_label_order() {
        let doc = "m{a=\"1\",b=\"2\"} 1\nm{b=\"2\",a=\"1\"} 2";
        assert!(validate(doc).is_err());
    }

    #[test]
    fn json_rendering_shape() {
        let json = sample_registry().render_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"reads_total\":{\"type\":\"counter\""));
        assert!(json.contains("\"labels\":{\"source\":\"live\"},\"value\":7"));
        assert!(json.contains("\"p50\":42"));
        assert!(json.contains("{\"le\":\"+Inf\",\"count\":1}"));
        // Escaping keeps the document one line and quote-balanced.
        assert_eq!(json.matches('\n').count(), 0);
    }

    #[test]
    fn json_escape_covers_controls() {
        assert_eq!(json::escape("a\"b\\c\nd\te\r"), "a\\\"b\\\\c\\nd\\te\\r");
        assert_eq!(json::escape("\u{1}"), "\\u0001");
    }
}
