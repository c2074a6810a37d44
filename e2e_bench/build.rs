//! Bakes the host record's build facts into the binary: the compiler
//! version, and the git commit when the source is a git checkout.

use std::path::Path;
use std::process::Command;

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into());
    let commit = if Path::new("../.git").exists() {
        // a commit moves HEAD or a ref under refs/
        println!("cargo:rerun-if-changed=../.git/HEAD");
        println!("cargo:rerun-if-changed=../.git/refs");
        stdout_of(Command::new("git").args(["-C", "..", "rev-parse", "HEAD"]))
    } else {
        None
    };
    println!("cargo:rerun-if-changed=build.rs");
    println!(
        "cargo:rustc-env=E2E_RUSTC_VERSION={}",
        stdout_of(Command::new(rustc).arg("--version")).unwrap_or_else(|| "unknown".into())
    );
    println!("cargo:rustc-env=E2E_GIT_COMMIT={}", commit.unwrap_or_else(|| "none".into()));
}

/// Trimmed standard output of a command that ran and succeeded.
fn stdout_of(cmd: &mut Command) -> Option<String> {
    let out = cmd.output().ok().filter(|o| o.status.success())?;
    String::from_utf8(out.stdout).ok().map(|s| s.trim().to_string())
}
