//! Records the build half of the machine fingerprint: the compiler
//! version, the cargo profile and the git commit, as compile-time
//! environment variables read by `main.rs`.

use std::path::Path;
use std::process::Command;

/// Trimmed standard output of a command that succeeded.
fn output(cmd: &mut Command) -> Option<String> {
    let o = cmd.output().ok().filter(|o| o.status.success())?;
    String::from_utf8(o.stdout)
        .ok()
        .map(|s| s.trim().to_string())
}

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into());
    let version = output(Command::new(rustc).arg("-V")).unwrap_or_else(|| "unknown".into());
    let profile = std::env::var("PROFILE").unwrap_or_else(|_| "unknown".into());
    println!("cargo:rustc-env=PERFBENCH_RUSTC={version}");
    println!("cargo:rustc-env=PERFBENCH_PROFILE={profile}");

    // The commit of the repository this package sits in (never a
    // parent's); a checkout without `.git` records "unknown".
    println!("cargo:rerun-if-changed=build.rs");
    let commit = if Path::new("../.git").exists() {
        println!("cargo:rerun-if-changed=../.git/HEAD");
        output(Command::new("git").args(["-C", "..", "rev-parse", "HEAD"]))
    } else {
        None
    };
    println!(
        "cargo:rustc-env=PERFBENCH_GIT_COMMIT={}",
        commit.unwrap_or_else(|| "unknown".into())
    );
}
