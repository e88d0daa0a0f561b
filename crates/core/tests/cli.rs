//! End-to-end tests of the `a4a` binary: exit codes and messages for
//! user input.

use std::io::Write as _;
use std::process::{Command, Output, Stdio};

/// Runs `a4a <args>` with `stdin` piped in.
fn a4a(args: &[&str], stdin: &str) -> Output {
    let mut child = Command::new(env!("CARGO_BIN_EXE_a4a"))
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("a4a starts");
    child
        .stdin
        .take()
        .expect("piped stdin")
        .write_all(stdin.as_bytes())
        .expect("stdin written");
    child.wait_with_output().expect("a4a finishes")
}

#[test]
fn place_name_collision_is_a_parse_error_not_a_panic() {
    // The `marking` line lacks its dot, so `<b-,a+>` is read as an
    // explicit place that collides with the implicit place of `b- a+`.
    let spec = "\
.outputs a b
.graph
a+ b+
b+ a-
a- b-
b- a+
marking { <b-,a+> }
.end
";
    let out = a4a(&["verify", "-"], spec);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "stderr: {stderr}");
    assert!(stderr.contains("parse error at line 6"), "stderr: {stderr}");
    assert!(stderr.contains("<b-,a+>"), "stderr: {stderr}");
    assert!(!stderr.contains("panicked"), "stderr: {stderr}");
}

#[test]
fn well_formed_spec_verifies_clean() {
    let spec = "\
.outputs a b
.graph
a+ b+
b+ a-
a- b-
b- a+
.marking { <b-,a+> }
.end
";
    let out = a4a(&["verify", "-"], spec);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(
        out.status.code(),
        Some(0),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(stdout.contains("states: 4  edges: 4"), "stdout: {stdout}");
}
