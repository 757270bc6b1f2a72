//! `dsh-lint.toml` — the checked-in lint configuration, and its reader.
//!
//! The module set the lints operate on (the serving roots) lives in a
//! `dsh-lint.toml` at the workspace root
//! instead of hardcoded Rust, so covering a new crate is a one-line
//! config change. The reader is a tiny hand-rolled
//! TOML-subset parser in the repo's vendored-shim tradition (offline
//! build, no registry deps): it accepts exactly `[section]` headers,
//! `key = "string"`, and `key = ["a", "b", ...]` arrays (single- or
//! multi-line), with `#` comments. Anything else — and any unknown
//! section or key — is a hard error, so a typo'd config can never
//! silently disable a lint.
//!
//! Schema:
//!
//! ```toml
//! [serving]
//! roots = ["crates/dsh-index/src/shard.rs"]   # L1': pub fns here are entry points
//! ```
//!
//! Every path named by the config must exist under the workspace root —
//! [`Config::validate_paths`] fails loudly otherwise, so renaming a
//! serving module away cannot silently shrink lint coverage.

use std::fmt;
use std::path::Path;

/// Lint configuration, normally read from `dsh-lint.toml` at the
/// workspace root. Tests construct custom configs to aim the lints at
/// fixture paths.
#[derive(Debug, Clone, Default)]
pub struct Config {
    /// Path suffixes of serving-root modules: their public functions are
    /// the L1' entry points.
    pub serving_roots: Vec<String>,
}

/// A configuration error: parse failure or a path that no longer exists.
#[derive(Debug)]
pub struct ConfigError(pub String);

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "dsh-lint.toml: {}", self.0)
    }
}

impl std::error::Error for ConfigError {}

impl Config {
    /// The empty configuration: no serving roots. Only the
    /// location-independent lints (M1, M2 and hot-marker L2) apply.
    pub fn empty() -> Self {
        Config::default()
    }

    /// The checked-in repository configuration (`dsh-lint.toml` at the
    /// workspace root, embedded at compile time so the code default can
    /// never drift from the file CI reads).
    pub fn repo_default() -> Self {
        Config::from_toml(include_str!("../../../dsh-lint.toml"))
            .expect("checked-in dsh-lint.toml must parse")
    }

    /// Parse the TOML-subset configuration text.
    pub fn from_toml(text: &str) -> Result<Self, ConfigError> {
        let mut cfg = Config::empty();
        let mut section = String::new();
        let mut lines = text.lines().enumerate().peekable();
        while let Some((ln, raw)) = lines.next() {
            let line = strip_comment(raw).trim().to_string();
            if line.is_empty() {
                continue;
            }
            if let Some(name) = line.strip_prefix('[').and_then(|s| s.strip_suffix(']')) {
                section = name.trim().to_string();
                if section != "serving" {
                    return Err(err(ln, format!("unknown section `[{section}]`")));
                }
                continue;
            }
            let Some(eq) = line.find('=') else {
                return Err(err(ln, format!("expected `key = value`, got {line:?}")));
            };
            let key = line[..eq].trim().to_string();
            let mut value = line[eq + 1..].trim().to_string();
            // A multi-line array: keep consuming lines until the `]`.
            if value.starts_with('[') && !value.ends_with(']') {
                for (_, more) in lines.by_ref() {
                    let more = strip_comment(more).trim().to_string();
                    value.push(' ');
                    value.push_str(&more);
                    if more.ends_with(']') {
                        break;
                    }
                }
                if !value.ends_with(']') {
                    return Err(err(ln, format!("unterminated array for key `{key}`")));
                }
            }
            match (section.as_str(), key.as_str()) {
                ("serving", "roots") => cfg.serving_roots = parse_array(ln, &value)?,
                (s, k) => {
                    return Err(err(ln, format!("unknown key `{k}` in section `[{s}]`")));
                }
            }
        }
        Ok(cfg)
    }

    /// Every module path the config names must exist under `root` —
    /// renaming a serving module away must fail loudly, never silently
    /// shrink coverage.
    pub fn validate_paths(&self, root: &Path) -> Result<(), ConfigError> {
        let mut missing = Vec::new();
        for rel in &self.serving_roots {
            if !root.join(rel).is_file() {
                missing.push(rel.clone());
            }
        }
        if missing.is_empty() {
            Ok(())
        } else {
            Err(ConfigError(format!(
                "configured module(s) do not exist under {}: {}",
                root.display(),
                missing.join(", ")
            )))
        }
    }
}

fn err(ln: usize, msg: impl std::fmt::Display) -> ConfigError {
    ConfigError(format!("line {}: {msg}", ln + 1))
}

/// Strip a `#` comment, respecting `"`-quoted strings.
fn strip_comment(line: &str) -> &str {
    let mut in_str = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' => in_str = !in_str,
            '#' if !in_str => return &line[..i],
            _ => {}
        }
    }
    line
}

/// Parse `"a string"`.
fn parse_string(ln: usize, value: &str) -> Result<String, ConfigError> {
    let v = value.trim();
    v.strip_prefix('"')
        .and_then(|s| s.strip_suffix('"'))
        .filter(|s| !s.contains('"') && !s.is_empty())
        .map(str::to_string)
        .ok_or_else(|| err(ln, format!("expected a non-empty \"string\", got {v:?}")))
}

/// Parse `["a", "b", ...]` (trailing comma tolerated).
fn parse_array(ln: usize, value: &str) -> Result<Vec<String>, ConfigError> {
    let v = value.trim();
    let inner = v
        .strip_prefix('[')
        .and_then(|s| s.strip_suffix(']'))
        .ok_or_else(|| err(ln, format!("expected a [\"...\"] array, got {v:?}")))?;
    let mut out = Vec::new();
    for item in inner.split(',') {
        let item = item.trim();
        if item.is_empty() {
            continue; // trailing comma
        }
        out.push(parse_string(ln, item)?);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_full_schema() {
        let cfg = Config::from_toml(
            r#"
            # comment
            [serving]
            roots = [
                "crates/a/src/serve.rs",  # inline comment
                "crates/b/src/serve.rs",
            ]
            "#,
        )
        .expect("parses");
        assert_eq!(cfg.serving_roots.len(), 2);
    }

    #[test]
    fn unknown_sections_and_keys_are_errors() {
        assert!(Config::from_toml("[srving]\nroots = []").is_err());
        assert!(Config::from_toml("[serving]\nroot = []").is_err());
        assert!(Config::from_toml("[serving]\nentry_points = []").is_err());
        assert!(Config::from_toml("[serving]\nroots = [oops]").is_err());
        assert!(Config::from_toml("[publication]\nfile = \"x\"").is_err());
        assert!(Config::from_toml("[kernel]\nmodules = []").is_err());
    }

    #[test]
    fn hash_inside_strings_is_not_a_comment() {
        let cfg = Config::from_toml("[serving]\nroots = [\"a#b.rs\"]").expect("parses");
        assert_eq!(cfg.serving_roots, vec!["a#b.rs"]);
    }

    #[test]
    fn validate_paths_reports_every_missing_module() {
        let cfg =
            Config::from_toml("[serving]\nroots = [\"no/such/file.rs\", \"also/missing.rs\"]")
                .expect("parses");
        let e = cfg
            .validate_paths(Path::new("/nonexistent-root"))
            .expect_err("missing modules must fail");
        assert!(e.0.contains("no/such/file.rs"), "{e}");
        assert!(e.0.contains("also/missing.rs"), "{e}");
    }

    #[test]
    fn repo_default_parses_and_names_the_serving_modules() {
        let cfg = Config::repo_default();
        assert!(
            cfg.serving_roots
                .iter()
                .any(|r| r.ends_with("dsh-index/src/shard.rs")),
            "{:?}",
            cfg.serving_roots
        );
    }
}
