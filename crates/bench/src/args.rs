//! Minimal command-line parsing for the experiment binaries
//! (`--name value` pairs and boolean `--flag`s; no external dependencies).

use std::collections::HashMap;

/// Parsed command-line arguments.
#[derive(Debug, Clone, Default)]
pub struct Args {
    values: HashMap<String, String>,
    flags: Vec<String>,
}

impl Args {
    /// Parse the process arguments. `--key value` sets a value; a `--key`
    /// followed by another `--...` (or nothing) is a boolean flag.
    pub fn parse() -> Self {
        Self::from_args(std::env::args().skip(1))
    }

    /// Parse from an explicit iterator (testable).
    pub fn from_args<I: IntoIterator<Item = String>>(iter: I) -> Self {
        let mut args = Args::default();
        let items: Vec<String> = iter.into_iter().collect();
        let mut i = 0;
        while i < items.len() {
            let item = &items[i];
            if let Some(key) = item.strip_prefix("--") {
                if i + 1 < items.len() && !items[i + 1].starts_with("--") {
                    args.values.insert(key.to_string(), items[i + 1].clone());
                    i += 2;
                } else {
                    args.flags.push(key.to_string());
                    i += 1;
                }
            } else {
                eprintln!("ignoring stray argument: {item}");
                i += 1;
            }
        }
        args
    }

    /// Value of `--key`, parsed, or `default`.
    pub fn get<T: std::str::FromStr>(&self, key: &str, default: T) -> T {
        match self.values.get(key) {
            Some(v) => v.parse().unwrap_or_else(|_| {
                eprintln!("bad value for --{key}: {v:?}; using default");
                std::process::exit(2)
            }),
            None => default,
        }
    }

    /// Raw string value of `--key`.
    pub fn get_str(&self, key: &str) -> Option<&str> {
        self.values.get(key).map(String::as_str)
    }

    /// Is boolean `--key` present?
    pub fn has(&self, key: &str) -> bool {
        self.flags.iter().any(|f| f == key)
    }

    /// Comma-separated list of `--key`, or `default`.
    pub fn get_list(&self, key: &str, default: &[u64]) -> Vec<u64> {
        match self.values.get(key) {
            Some(v) => v.split(',').map(|s| parse_size(s.trim())).collect(),
            None => default.to_vec(),
        }
    }
}

/// The value of a solver `result`, or — on a typed rejection such as a bad
/// `--eps` — `<what> failed: <error>` on stderr and exit status 1.
pub fn or_exit<T, E: std::fmt::Display>(what: &str, result: Result<T, E>) -> T {
    result.unwrap_or_else(|e| {
        eprintln!("{what} failed: {e}");
        std::process::exit(1)
    })
}

/// Parse sizes with k/m/g suffixes ("100k" = 100_000).
pub fn parse_size(s: &str) -> u64 {
    let lower = s.to_ascii_lowercase();
    let (num, mult) = if let Some(n) = lower.strip_suffix('g') {
        (n, 1_000_000_000)
    } else if let Some(n) = lower.strip_suffix('m') {
        (n, 1_000_000)
    } else if let Some(n) = lower.strip_suffix('k') {
        (n, 1_000)
    } else {
        (lower.as_str(), 1)
    };
    let base: f64 = num.parse().unwrap_or_else(|_| {
        eprintln!("bad size: {s:?}");
        std::process::exit(2)
    });
    (base * mult as f64) as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &[&str]) -> Args {
        Args::from_args(s.iter().map(|s| s.to_string()))
    }

    #[test]
    fn values_and_flags() {
        let a = args(&["--k", "16", "--csv", "--seed", "7"]);
        assert_eq!(a.get("k", 4usize), 16);
        assert_eq!(a.get("seed", 0u64), 7);
        assert!(a.has("csv"));
        assert!(!a.has("quick"));
        assert_eq!(a.get("missing", 3usize), 3);
    }

    #[test]
    fn size_suffixes() {
        assert_eq!(parse_size("100k"), 100_000);
        assert_eq!(parse_size("1m"), 1_000_000);
        assert_eq!(parse_size("2.5m"), 2_500_000);
        assert_eq!(parse_size("1g"), 1_000_000_000);
        assert_eq!(parse_size("42"), 42);
    }

    #[test]
    fn lists() {
        let a = args(&["--sizes", "100k,1m,10m"]);
        assert_eq!(
            a.get_list("sizes", &[1]),
            vec![100_000, 1_000_000, 10_000_000]
        );
        assert_eq!(a.get_list("other", &[5, 6]), vec![5, 6]);
    }
}
