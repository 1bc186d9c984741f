//! Exit-code acceptance tests for the `pic` CLI: hostile or invalid
//! input must exit 2 with an error, never panic or abort. A document
//! nested far past the `pic diff` parser's depth cap is a parse error,
//! not a stack overflow.

use std::process::Command;

#[test]
fn deeply_nested_input_exits_2() {
    let dir = std::env::temp_dir().join(format!("pic-diff-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let deep = dir.join("deep.json");
    let ok = dir.join("ok.json");
    std::fs::write(&deep, "[".repeat(1_000_000)).unwrap();
    std::fs::write(&ok, "{}").unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_pic"))
        .args(["diff", deep.to_str().unwrap(), ok.to_str().unwrap()])
        .output()
        .expect("spawn pic");
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("is not valid JSON"), "{stderr}");
    assert!(
        stderr.contains("nesting deeper than 256 levels"),
        "{stderr}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Bad invocations exit 2 — never a panic's 101 — and print nothing to
/// stdout: the app launcher validates every flag before its banner,
/// `repro` checks the whole `--exp` list before running any experiment,
/// and `host-trend` rejects a baseline whose share is NaN before
/// measuring.
#[test]
fn bad_invocations_exit_2_with_empty_stdout() {
    let dir = std::env::temp_dir().join(format!("pic-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let nan = dir.join("nan_host.csv");
    std::fs::write(
        &nan,
        "stage,calls,bytes,median_total_s,share\nmap,1,0,0.5,NaN\n",
    )
    .unwrap();
    let cases: [&[&str]; 14] = [
        &["kmeans", "--partitions", "0"],
        &["kmeans", "--k", "0"],
        &["linsolve", "--n", "0"],
        &["smoothing", "--side", "0"],
        &["pagerank", "--partitions", "0"],
        &["pagerank", "--n", "3"],
        &["linsolve", "--n", "1"],
        &["smoothing", "--side", "8", "--partitions", "16"],
        &["kmeans", "--cluster", "large:0"],
        &["kmeans", "--cluster", "large:abc"],
        &["kmeans", "--cluster", "largefoo"],
        &["--bogus"],
        &["repro", "--exp", "table3,bogus"],
        &["host-trend", "--baseline", nan.to_str().unwrap()],
    ];
    for args in cases {
        let out = Command::new(env!("CARGO_BIN_EXE_pic"))
            .args(args)
            .output()
            .expect("spawn pic");
        assert_eq!(out.status.code(), Some(2), "{args:?}: {out:?}");
        assert!(out.stdout.is_empty(), "{args:?}: {out:?}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
