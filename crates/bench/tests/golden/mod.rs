//! Pinned CLI outputs for `linsolve` at `--scale 0.01`: the series views
//! must stay byte-identical to the files in this directory. A deliberate
//! output change regenerates them (from `crates/bench/tests/golden`):
//!
//! ```text
//! pic watch linsolve --scale 0.01 --json watch_linsolve.json --csv watch_linsolve.csv
//! pic timeline --apps linsolve --scale 0.01 > timeline_linsolve.txt
//! pic explain linsolve --scale 0.01 --json explain_linsolve.json
//! ```

/// Panic with the first differing line unless `actual` equals the golden
/// file `name` byte for byte.
pub fn assert_matches(name: &str, actual: &[u8]) {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name);
    let expected = std::fs::read(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    if actual == expected.as_slice() {
        return;
    }
    let (got, want) = (
        String::from_utf8_lossy(actual),
        String::from_utf8_lossy(&expected),
    );
    let line = got
        .lines()
        .zip(want.lines())
        .position(|(g, w)| g != w)
        .unwrap_or_else(|| got.lines().count().min(want.lines().count()));
    panic!(
        "{name} differs from the golden file at line {}:\n  got:  {:?}\n  want: {:?}",
        line + 1,
        got.lines().nth(line),
        want.lines().nth(line)
    );
}
