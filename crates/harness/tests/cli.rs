//! The `mss-experiments` command line rejects bad invocations with the
//! usage error (exit 2) before any experiment runs, so no committed CSV
//! under `results/` is ever rewritten by one.

use std::path::PathBuf;
use std::process::Command;

/// A fresh, empty working directory for one invocation.
fn empty_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mss_cli_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create an empty dir");
    dir
}

/// Run the binary in an empty directory; return its exit code and
/// whether it created `results/` there.
fn run_in_empty_dir(tag: &str, args: &[&str]) -> (Option<i32>, bool) {
    let dir = empty_dir(tag);
    let status = Command::new(env!("CARGO_BIN_EXE_mss-experiments"))
        .args(args)
        .current_dir(&dir)
        .output()
        .expect("run mss-experiments")
        .status;
    let wrote = dir.join("results").exists();
    let _ = std::fs::remove_dir_all(&dir);
    (status.code(), wrote)
}

#[test]
fn bad_invocations_are_usage_errors_and_write_nothing() {
    for (tag, args) in [
        ("seeds0", &["fig11", "--seeds", "0"][..]),
        ("unknown", &["nope"][..]),
        ("two", &["fig11", "fig12"][..]),
        ("junk", &["fig10", "junk"][..]),
    ] {
        assert_eq!(run_in_empty_dir(tag, args), (Some(2), false), "{args:?}");
    }
}
