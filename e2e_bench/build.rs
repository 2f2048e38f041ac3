//! Records the toolchain and source revision the benchmark was built
//! from, so every result carries them in its host fingerprint.

use std::path::Path;
use std::process::Command;

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".to_string());
    let version = Command::new(rustc)
        .arg("-V")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string());
    println!("cargo:rustc-env=BENCH_RUSTC_VERSION={}", version);

    // The benchmark may run from a plain source export with no git
    // metadata; only ask git when the repository root is a checkout, so
    // an enclosing unrelated repository is never consulted.
    let root = Path::new("..");
    let commit = if root.join(".git").exists() {
        Command::new("git")
            .args(["-C", "..", "rev-parse", "HEAD"])
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
    } else {
        None
    };
    println!(
        "cargo:rustc-env=BENCH_COMMIT={}",
        commit.unwrap_or_else(|| "none".to_string())
    );

    // A content hash of the measured sources identifies the code even
    // where no commit id is available.
    let mut files = Vec::new();
    collect(&root.join("crates"), &mut files);
    for f in ["Cargo.toml", "Cargo.lock", "SECCOMP_PROFILES.json"] {
        files.push(root.join(f));
    }
    files.sort();
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for f in &files {
        let Ok(bytes) = std::fs::read(f) else {
            continue;
        };
        for b in f.to_string_lossy().bytes().chain(bytes) {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(0x0100_0000_01b3);
        }
    }
    println!("cargo:rustc-env=BENCH_SOURCE_HASH={:016x}", hash);
    println!("cargo:rerun-if-changed=../crates");
    println!("cargo:rerun-if-changed=../Cargo.lock");
    println!("cargo:rerun-if-changed=../SECCOMP_PROFILES.json");
    if root.join(".git").exists() {
        println!("cargo:rerun-if-changed=../.git/HEAD");
        println!("cargo:rerun-if-changed=../.git/refs/heads");
    }
}

fn collect(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for e in entries.flatten() {
        let p = e.path();
        if p.is_dir() {
            collect(&p, out);
        } else if p.extension().is_some_and(|x| x == "rs" || x == "toml") {
            out.push(p);
        }
    }
}
