//! Minimal `--flag value` argument parsing.

use std::collections::BTreeMap;

/// Flags that take no value: present means `true`. Everything else is
/// `--flag value`.
const BOOLEAN_FLAGS: [&str; 6] =
    ["json", "no-verify", "cache", "quiet", "alloc-profile", "coordinator"];

/// Parsed command line: a subcommand plus `--key value` options.
#[derive(Debug, Default)]
pub struct Args {
    pub command: String,
    options: BTreeMap<String, String>,
}

impl Args {
    /// Parses `argv` (without the program name).
    pub fn parse(argv: &[String]) -> Result<Self, String> {
        let mut it = argv.iter();
        let command = it.next().cloned().unwrap_or_else(|| "help".to_string());
        let mut options = BTreeMap::new();
        while let Some(tok) = it.next() {
            let key =
                tok.strip_prefix("--").ok_or_else(|| format!("expected --flag, got '{tok}'"))?;
            if key.is_empty() {
                return Err("empty flag name".to_string());
            }
            let value = if BOOLEAN_FLAGS.contains(&key) {
                "true".to_string()
            } else {
                it.next().ok_or_else(|| format!("flag --{key} needs a value"))?.clone()
            };
            if options.insert(key.to_string(), value).is_some() {
                return Err(format!("flag --{key} given twice"));
            }
        }
        Ok(Self { command, options })
    }

    /// Whether a boolean flag (e.g. `--json`) was given.
    pub fn flag(&self, key: &str) -> bool {
        self.options.get(key).map(String::as_str) == Some("true")
    }

    /// Required string option.
    pub fn require(&self, key: &str) -> Result<&str, String> {
        self.options
            .get(key)
            .map(String::as_str)
            .ok_or_else(|| format!("missing required flag --{key}"))
    }

    /// Optional string option.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.options.get(key).map(String::as_str)
    }

    /// Optional typed option with a default.
    pub fn get_or<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.options.get(key) {
            None => Ok(default),
            Some(raw) => raw.parse().map_err(|_| format!("flag --{key}: cannot parse '{raw}'")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sv(parts: &[&str]) -> Vec<String> {
        parts.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_command_and_flags() {
        let a = Args::parse(&sv(&["compress", "--input", "g.txt", "--p", "0.3"])).expect("ok");
        assert_eq!(a.command, "compress");
        assert_eq!(a.require("input").expect("present"), "g.txt");
        assert_eq!(a.get_or::<f64>("p", 0.0).expect("typed"), 0.3);
        assert_eq!(a.get_or::<u64>("seed", 42).expect("default"), 42);
    }

    #[test]
    fn empty_argv_is_help() {
        let a = Args::parse(&[]).expect("ok");
        assert_eq!(a.command, "help");
    }

    #[test]
    fn rejects_malformed() {
        assert!(Args::parse(&sv(&["x", "oops"])).is_err());
        assert!(Args::parse(&sv(&["x", "--flag"])).is_err());
        assert!(Args::parse(&sv(&["x", "--a", "1", "--a", "2"])).is_err());
    }

    #[test]
    fn boolean_flags_take_no_value() {
        let a = Args::parse(&sv(&["tune", "--json", "--seed", "7", "--no-verify"])).expect("ok");
        assert!(a.flag("json"));
        assert!(a.flag("no-verify"));
        assert_eq!(a.get_or::<u64>("seed", 0).expect("typed"), 7);
        let b = Args::parse(&sv(&["tune", "--seed", "7"])).expect("ok");
        assert!(!b.flag("json"));
        // A boolean flag never consumes the next token.
        assert!(Args::parse(&sv(&["x", "--json", "true"])).is_err());
    }

    #[test]
    fn typed_parse_errors() {
        let a = Args::parse(&sv(&["x", "--p", "abc"])).expect("ok");
        assert!(a.get_or::<f64>("p", 0.0).is_err());
    }
}
