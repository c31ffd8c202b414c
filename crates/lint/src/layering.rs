//! Rule L1 — crate layering, parsed from the workspace `Cargo.toml`s.
//!
//! The layering exists so the deterministic simulator can never grow a
//! dependency on the real transport (or vice versa into the bench
//! harness) by accident:
//!
//! ```text
//! types ← runtime ← {fd, broadcast, consensus} ← core ← {sim, net}
//!                                                        ← workload ← bench
//! ```
//!
//! Checked invariants, over `[dependencies]` only (dev-dependencies may
//! reach up — tests legitimately drive higher layers):
//!
//! * a crate depends only on strictly lower layers (no cycles, no
//!   same-layer coupling — in particular `sim` never depends on `net`);
//! * nothing depends on `bench` or on `lint` (terminal crates);
//! * `lint` depends on no workspace crate at all (std-only tool).

use crate::findings::Finding;

/// Layer of each workspace crate (strictly-lower-only dependencies).
const LAYERS: &[(&str, u32)] = &[
    ("iabc-types", 0),
    ("iabc-runtime", 1),
    ("iabc-fd", 2),
    ("iabc-broadcast", 2),
    ("iabc-consensus", 2),
    ("iabc-core", 3),
    ("iabc-sim", 4),
    ("iabc-net", 4),
    ("iabc-workload", 5),
    ("iabc-bench", 6),
    ("iabc-lint", 0),
];

/// Crates nothing may depend on.
const TERMINAL: &[&str] = &["iabc-bench", "iabc-lint"];

fn layer_of(name: &str) -> Option<u32> {
    LAYERS.iter().find(|(n, _)| *n == name).map(|(_, l)| *l)
}

/// A `[dependencies]` entry of one crate manifest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Dep {
    /// Dependency package name (e.g. `iabc-types`).
    pub name: String,
    /// 1-based line in the manifest.
    pub line: usize,
}

/// Extracts normal `[dependencies]` (not dev/build) from manifest text.
/// Recognizes both inline entries under a `[dependencies]` table and
/// dotted sections `[dependencies.<name>]`.
pub fn parse_dependencies(manifest: &str) -> Vec<Dep> {
    let mut deps = Vec::new();
    let mut in_deps_table = false;
    for (idx, raw) in manifest.lines().enumerate() {
        let line = raw.trim();
        if line.starts_with('[') {
            in_deps_table = line == "[dependencies]";
            if let Some(rest) = line.strip_prefix("[dependencies.") {
                if let Some(name) = rest.strip_suffix(']') {
                    deps.push(Dep { name: name.trim().trim_matches('"').to_string(), line: idx + 1 });
                }
            }
            continue;
        }
        if !in_deps_table || line.is_empty() || line.starts_with('#') {
            continue;
        }
        if let Some(eq) = line.find('=') {
            let name = line[..eq].trim().trim_matches('"');
            if !name.is_empty() {
                deps.push(Dep { name: name.to_string(), line: idx + 1 });
            }
        }
    }
    deps
}

/// Checks one crate's dependency list against the layering. Pure — unit
/// tests feed synthetic manifests; `check_layering` feeds the real ones.
pub fn check_crate_deps(crate_pkg: &str, manifest_path: &str, deps: &[Dep]) -> Vec<Finding> {
    let mut findings = Vec::new();
    let Some(my_layer) = layer_of(crate_pkg) else {
        return findings; // not a workspace crate we govern
    };
    for dep in deps {
        let Some(dep_layer) = layer_of(&dep.name) else {
            continue; // external (vendored) dependency
        };
        if TERMINAL.contains(&dep.name.as_str()) {
            findings.push(Finding::new(
                "L1",
                manifest_path,
                dep.line,
                format!("`{crate_pkg}` depends on terminal crate `{}` — nothing may", dep.name),
            ));
            continue;
        }
        if crate_pkg == "iabc-lint" {
            findings.push(Finding::new(
                "L1",
                manifest_path,
                dep.line,
                format!("`iabc-lint` must stay std-only but depends on `{}`", dep.name),
            ));
            continue;
        }
        if dep_layer >= my_layer {
            findings.push(Finding::new(
                "L1",
                manifest_path,
                dep.line,
                format!(
                    "`{crate_pkg}` (layer {my_layer}) depends on `{}` (layer {dep_layer}) — \
                     dependencies must point strictly down the layering \
                     (types ← runtime ← fd/broadcast/consensus ← core ← sim/net ← workload ← bench)",
                    dep.name
                ),
            ));
        }
    }
    findings
}

/// The package name from a manifest (`name = "…"` under `[package]`).
pub fn package_name(manifest: &str) -> Option<String> {
    let mut in_package = false;
    for raw in manifest.lines() {
        let line = raw.trim();
        if line.starts_with('[') {
            in_package = line == "[package]";
            continue;
        }
        if in_package {
            if let Some(rest) = line.strip_prefix("name") {
                let rest = rest.trim_start();
                if let Some(v) = rest.strip_prefix('=') {
                    return Some(v.trim().trim_matches('"').to_string());
                }
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    const SIM_BAD: &str = "\
[package]
name = \"iabc-sim\"

[dependencies]
iabc-types = { workspace = true }
iabc-net = { workspace = true }

[dev-dependencies]
iabc-core = { workspace = true }
";

    #[test]
    fn sim_must_not_depend_on_net() {
        let deps = parse_dependencies(SIM_BAD);
        assert_eq!(deps.len(), 2, "dev-dependencies must not count: {deps:?}");
        let f = check_crate_deps("iabc-sim", "crates/sim/Cargo.toml", &deps);
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("iabc-net"));
        assert_eq!(f[0].line, 6);
    }

    #[test]
    fn nothing_depends_on_bench_or_lint() {
        let deps = vec![
            Dep { name: "iabc-bench".into(), line: 4 },
            Dep { name: "iabc-lint".into(), line: 5 },
        ];
        let f = check_crate_deps("iabc-workload", "x", &deps);
        assert_eq!(f.len(), 2, "{f:?}");
        assert!(f.iter().all(|f| f.rule == "L1"));
    }

    #[test]
    fn lint_must_be_std_only() {
        let deps = vec![Dep { name: "iabc-types".into(), line: 7 }];
        let f = check_crate_deps("iabc-lint", "crates/lint/Cargo.toml", &deps);
        assert_eq!(f.len(), 1);
        assert!(f[0].message.contains("std-only"));
    }

    #[test]
    fn legal_stack_is_quiet() {
        for (pkg, deps) in [
            ("iabc-core", vec!["iabc-types", "iabc-runtime", "iabc-fd", "iabc-broadcast", "iabc-consensus"]),
            ("iabc-sim", vec!["iabc-types", "iabc-runtime"]),
            ("iabc-bench", vec!["iabc-types", "iabc-core", "iabc-sim", "iabc-workload"]),
        ] {
            let deps: Vec<Dep> =
                deps.into_iter().enumerate().map(|(i, n)| Dep { name: n.into(), line: i + 1 }).collect();
            assert!(check_crate_deps(pkg, "x", &deps).is_empty(), "{pkg} should be legal");
        }
    }

    #[test]
    fn dotted_dependency_sections_are_seen() {
        let m = "[package]\nname = \"iabc-sim\"\n[dependencies.iabc-net]\nworkspace = true\n";
        let deps = parse_dependencies(m);
        assert_eq!(deps, vec![Dep { name: "iabc-net".into(), line: 3 }]);
        assert_eq!(package_name(m).as_deref(), Some("iabc-sim"));
    }

    #[test]
    fn external_deps_are_ignored() {
        let m = "[dependencies]\nserde = { workspace = true }\ncrossbeam = { workspace = true }\n";
        let f = check_crate_deps("iabc-net", "x", &parse_dependencies(m));
        assert!(f.is_empty());
    }
}
