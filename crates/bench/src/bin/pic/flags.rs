//! The one flag parser every `pic` subcommand reads its argv through.
//!
//! A [`Flags`] cursor hands out the next argument; a subcommand matches
//! it and pulls the flag's value with [`Flags::value`],
//! [`Flags::positive`] or [`Flags::list`]. Parse failures come back as
//! `Err(String)` and convert into [`Fail::Usage`] with `?`; `main` alone
//! turns a [`Fail`] into exit status 2.

use std::str::FromStr;

/// Why a subcommand stopped before finishing. `main` prints it and
/// exits 2.
#[derive(Debug)]
pub enum Fail {
    /// A bad invocation: printed with the subcommand's usage block.
    Usage(String),
    /// The invocation parsed but an input or output file is unusable.
    Abort(String),
}

impl From<String> for Fail {
    fn from(msg: String) -> Fail {
        Fail::Usage(msg)
    }
}

/// What a subcommand returns: its exit status, or why it stopped.
pub type Outcome = Result<i32, Fail>;

/// Cursor over one subcommand's arguments.
pub struct Flags {
    args: std::vec::IntoIter<String>,
}

impl Flags {
    /// A cursor over `args` (the argv after the subcommand name).
    pub fn new(args: Vec<String>) -> Flags {
        Flags {
            args: args.into_iter(),
        }
    }

    /// The next flag or positional argument.
    pub fn next(&mut self) -> Option<String> {
        self.args.next()
    }

    /// Parse the value that follows `flag`.
    pub fn value<T: FromStr>(&mut self, flag: &str) -> Result<T, String> {
        let raw = self
            .args
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?;
        parse(flag, &raw)
    }

    /// Parse the value that follows `flag`, rejecting zero, negatives
    /// and NaN.
    pub fn positive<T: FromStr + PartialOrd + Default>(&mut self, flag: &str) -> Result<T, String> {
        let v: T = self.value(flag)?;
        if v > T::default() {
            Ok(v)
        } else {
            Err(format!("{flag} must be positive"))
        }
    }

    /// Parse the comma-separated list that follows `flag`, trimming
    /// each item.
    pub fn list<T: FromStr>(&mut self, flag: &str) -> Result<Vec<T>, String> {
        let raw: String = self.value(flag)?;
        raw.split(',')
            .map(|item| parse(flag, item.trim()))
            .collect()
    }
}

/// Parse one flag value, naming the flag and the text on failure.
pub fn parse<T: FromStr>(flag: &str, raw: &str) -> Result<T, String> {
    raw.parse()
        .map_err(|_| format!("{flag}: cannot parse '{raw}'"))
}

/// `arg` as a positional argument, or the unknown-flag error when it
/// looks like a flag.
pub fn positional(arg: String) -> Result<String, String> {
    if arg.starts_with('-') {
        Err(unknown(&arg))
    } else {
        Ok(arg)
    }
}

/// The error for a flag no match arm claimed.
pub fn unknown(arg: &str) -> String {
    format!("unknown flag '{arg}'")
}

/// Write `doc` to `path` (creating its parent directory) and log the
/// size under `tag`; an unwritable path aborts the subcommand.
pub fn write_artifact(tag: &str, path: &str, doc: &str) -> Result<(), Fail> {
    let cannot = |e: std::io::Error| Fail::Abort(format!("cannot write {path}: {e}"));
    if let Some(dir) = std::path::Path::new(path).parent() {
        std::fs::create_dir_all(dir).map_err(cannot)?;
    }
    std::fs::write(path, doc).map_err(cannot)?;
    eprintln!("[{tag}] wrote {path} ({} bytes)", doc.len());
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flags(args: &[&str]) -> Flags {
        Flags::new(args.iter().map(|s| s.to_string()).collect())
    }

    #[test]
    fn positive_rejects_zero_negative_and_nan() {
        for bad in ["0", "-1", "NaN", "abc"] {
            assert!(flags(&[bad]).positive::<f64>("--scale").is_err(), "{bad}");
        }
        assert!(flags(&["0"]).positive::<usize>("--n").is_err());
        assert!(flags(&["-3"]).positive::<usize>("--n").is_err());
        assert_eq!(flags(&["0.5"]).positive::<f64>("--scale"), Ok(0.5));
        assert_eq!(
            flags(&[]).positive::<usize>("--n"),
            Err("--n needs a value".to_string())
        );
    }

    #[test]
    fn list_trims_and_parses_every_item() {
        assert_eq!(
            flags(&["1, 2,3"]).list::<usize>("--jobs"),
            Ok(vec![1, 2, 3])
        );
        assert_eq!(
            flags(&["1,x"]).list::<usize>("--jobs"),
            Err("--jobs: cannot parse 'x'".to_string())
        );
    }

    #[test]
    fn positional_rejects_flags() {
        assert_eq!(positional("kmeans".into()), Ok("kmeans".to_string()));
        assert_eq!(
            positional("--bogus".into()),
            Err("unknown flag '--bogus'".to_string())
        );
    }
}
