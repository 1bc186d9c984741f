//! Acceptance test for `pic diff` on hostile input: a document nested
//! far past the parser's depth cap must exit 2 with a parse error, not
//! abort on a stack overflow.

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
