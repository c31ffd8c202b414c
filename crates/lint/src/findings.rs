//! Findings and their machine-readable rendering.

use std::fmt;

/// One lint finding: a rule violation at a file/line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Rule name (`D1`, `D2`, `P1`, `W1`, `W2`, `O1`, `B1`, `E1`, `L1`,
    /// `U1`, or `A1` for a malformed `lint:allow` annotation).
    pub rule: String,
    /// Workspace-relative path.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// Human-readable description of the hazard.
    pub message: String,
    /// Stable identity: rule + file + a hash of the *normalized source
    /// line* (not the line number), so inserting unrelated lines above a
    /// finding does not change its id. Empty until [`assign_ids`] runs —
    /// ids need the file contents, which individual rules do not carry.
    pub id: String,
}

impl Finding {
    /// Creates a finding (id assigned later by [`assign_ids`]).
    pub fn new(rule: &str, file: &str, line: usize, message: String) -> Self {
        Finding {
            rule: rule.to_string(),
            file: file.to_string(),
            line,
            message,
            id: String::new(),
        }
    }
}

/// Assigns stable ids to `findings`. `source_of` maps a workspace-relative
/// path to that file's contents (`None` if unavailable — the id then
/// hashes an empty snippet, still stable for a given rule+file).
///
/// The id is `<rule>-<fnv1a64 hex>` over
/// `rule | file | normalized snippet | occurrence`, where the snippet is
/// the finding's source line with whitespace collapsed, and `occurrence`
/// disambiguates repeated identical lines (k-th duplicate keeps id k even
/// as unrelated lines move it around).
pub fn assign_ids(findings: &mut [Finding], source_of: &dyn Fn(&str) -> Option<String>) {
    let mut seen: std::collections::BTreeMap<String, usize> = std::collections::BTreeMap::new();
    for f in findings.iter_mut() {
        let snippet = source_of(&f.file)
            .and_then(|src| src.lines().nth(f.line.saturating_sub(1)).map(normalize_line))
            .unwrap_or_default();
        let key = format!("{}|{}|{}", f.rule, f.file, snippet);
        let occurrence = seen.entry(key.clone()).or_insert(0);
        f.id = format!("{}-{:016x}", f.rule, fnv1a64(format!("{key}|{occurrence}").as_bytes()));
        *occurrence += 1;
    }
}

/// Collapses runs of whitespace to single spaces and trims — so
/// reformatting that does not change tokens keeps the id stable.
fn normalize_line(line: &str) -> String {
    line.split_whitespace().collect::<Vec<_>>().join(" ")
}

/// FNV-1a 64-bit — tiny, dependency-free, stable across platforms.
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Extracts the set of finding ids from a baseline JSON report previously
/// written by [`Report::to_json`]. Tolerant by construction: it scans for
/// `"id": "<…>"` pairs, so hand-edited or truncated baselines degrade to
/// fewer known ids (more findings reported), never to silently ignoring
/// new ones.
pub fn baseline_ids(json: &str) -> std::collections::BTreeSet<String> {
    let mut ids = std::collections::BTreeSet::new();
    let mut rest = json;
    while let Some(at) = rest.find("\"id\": \"") {
        rest = &rest[at + "\"id\": \"".len()..];
        if let Some(end) = rest.find('"') {
            ids.insert(rest[..end].to_string());
            rest = &rest[end + 1..];
        } else {
            break;
        }
    }
    ids
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}: [{}] {}", self.file, self.line, self.rule, self.message)
    }
}

/// The result of a full workspace run.
#[derive(Debug, Default)]
pub struct Report {
    /// All findings, sorted by (file, line, rule).
    pub findings: Vec<Finding>,
    /// Number of files analyzed.
    pub files_scanned: usize,
    /// Workspace-relative paths of the files rule U1 read for namings.
    pub corpus: Vec<String>,
}

impl Report {
    /// Whether the workspace is lint-clean.
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// Renders the report as JSON (machine-readable; uploaded as a CI
    /// artifact on failure). Hand-rolled because the analyzer is std-only
    /// by design.
    pub fn to_json(&self) -> String {
        let mut s = String::from("{\n  \"findings\": [");
        for (i, f) in self.findings.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str("\n    {");
            s.push_str(&format!(
                "\"id\": {}, \"rule\": {}, \"file\": {}, \"line\": {}, \"message\": {}",
                json_str(&f.id),
                json_str(&f.rule),
                json_str(&f.file),
                f.line,
                json_str(&f.message)
            ));
            s.push('}');
        }
        if !self.findings.is_empty() {
            s.push_str("\n  ");
        }
        s.push_str(&format!(
            "],\n  \"count\": {},\n  \"files_scanned\": {}\n}}\n",
            self.findings.len(),
            self.files_scanned
        ));
        s
    }
}

/// Escapes `s` as a JSON string literal.
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_escapes_and_shape() {
        let r = Report {
            findings: vec![Finding::new("D2", "crates/x/src/a.rs", 3, "use \"BTreeMap\"".into())],
            files_scanned: 2,
            corpus: Vec::new(),
        };
        let j = r.to_json();
        assert!(j.contains("\"rule\": \"D2\""));
        assert!(j.contains("\\\"BTreeMap\\\""));
        assert!(j.contains("\"count\": 1"));
        assert!(j.contains("\"files_scanned\": 2"));
        // Empty report is valid JSON with an empty array.
        let empty = Report::default().to_json();
        assert!(empty.contains("\"findings\": []"));
    }

    fn ids_for(src: &str, findings: &mut [Finding]) -> Vec<String> {
        let owned = src.to_string();
        assign_ids(findings, &|_| Some(owned.clone()));
        findings.iter().map(|f| f.id.clone()).collect()
    }

    #[test]
    fn ids_are_stable_across_unrelated_line_insertions() {
        let before = "fn a() {}\nlet m = HashMap::new();\n";
        let after = "// new comment\nfn unrelated() {}\nfn a() {}\nlet m = HashMap::new();\n";
        let mut f1 = [Finding::new("D2", "crates/x/src/a.rs", 2, "m".into())];
        let mut f2 = [Finding::new("D2", "crates/x/src/a.rs", 4, "m".into())];
        let id1 = ids_for(before, &mut f1);
        let id2 = ids_for(after, &mut f2);
        assert_eq!(id1, id2, "moving a finding down must not change its id");
        assert!(id1[0].starts_with("D2-"), "{id1:?}");
    }

    #[test]
    fn duplicate_lines_get_distinct_stable_ids() {
        let src = "x.unwrap();\nx.unwrap();\n";
        let mut fs = [
            Finding::new("P1", "crates/net/src/a.rs", 1, "u".into()),
            Finding::new("P1", "crates/net/src/a.rs", 2, "u".into()),
        ];
        let ids = ids_for(src, &mut fs);
        assert_ne!(ids[0], ids[1], "occurrence counter must disambiguate");
        // Different rule or file changes the id.
        let mut other = [Finding::new("P1", "crates/net/src/b.rs", 1, "u".into())];
        let other_ids = ids_for(src, &mut other);
        assert_ne!(ids[0], other_ids[0]);
    }

    #[test]
    fn baseline_roundtrip() {
        let mut r = Report {
            findings: vec![
                Finding::new("W2", "crates/types/src/t.rs", 1, "narrow".into()),
                Finding::new("B1", "crates/net/src/t.rs", 2, "block".into()),
            ],
            files_scanned: 2,
            corpus: Vec::new(),
        };
        assign_ids(&mut r.findings, &|_| Some("a as u8\nwrite under lock\n".into()));
        let ids = baseline_ids(&r.to_json());
        assert_eq!(ids.len(), 2);
        assert!(r.findings.iter().all(|f| ids.contains(&f.id)));
        // Garbage in, graceful degradation out.
        assert!(baseline_ids("not json at all").is_empty());
    }
}
