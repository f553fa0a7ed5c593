//! The `pnet` CLI turns solver rejections into a diagnostic and exit
//! status 1, never a panic (exit 101).

use std::process::Command;

/// Run `pnet <cmd>` on a k=4 fat tree with `extra` flags; returns the exit
/// code and stderr.
fn pnet(cmd: &str, extra: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_pnet"))
        .args([cmd, "--kind", "fattree", "--k", "4"])
        .args(extra)
        .output()
        .expect("pnet binary must launch");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into(),
    )
}

#[test]
fn throughput_with_zero_eps_is_a_typed_error() {
    let (code, stderr) = pnet("throughput", &["--eps", "0"]);
    assert_eq!(code, Some(1), "stderr: {stderr}");
    assert!(
        stderr.contains("throughput query failed: eps out of range"),
        "stderr: {stderr}"
    );
}

#[test]
fn throughput_with_zero_kpaths_is_a_typed_error() {
    let (code, stderr) = pnet("throughput", &["--kpaths", "0"]);
    assert_eq!(code, Some(1), "stderr: {stderr}");
    assert!(
        stderr.contains("throughput query failed: commodity")
            && stderr.contains("has no allowed path"),
        "stderr: {stderr}"
    );
}

#[test]
fn throughput_with_valid_flags_succeeds() {
    let (code, stderr) = pnet("throughput", &["--kpaths", "2"]);
    assert_eq!(code, Some(0), "stderr: {stderr}");
}

#[test]
fn plan_with_every_cable_down_is_a_typed_error() {
    // The what-if solve on a fabric with no cable left has no route for any
    // inter-rack commodity under free routing.
    let (code, stderr) = pnet("plan", &["--what-if-cables", "1000"]);
    assert_eq!(code, Some(1), "stderr: {stderr}");
    assert!(
        stderr.contains("planner query failed:") && stderr.contains("has no allowed path"),
        "stderr: {stderr}"
    );
}
