//! Stamp the binary with the compiler that built it and a digest of the
//! platform sources it was built from, for the provenance block (the
//! benchmark usually runs from a checkout that is not a git repository).

use std::path::{Path, PathBuf};
use std::process::Command;

fn sources(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for e in entries.flatten() {
        let p = e.path();
        if p.is_dir() {
            sources(&p, out);
        } else if p.extension().is_some_and(|x| x == "rs" || x == "toml") {
            out.push(p);
        }
    }
}

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into());
    let version = Command::new(rustc)
        .arg("-V")
        .output()
        .ok()
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|v| !v.is_empty())
        .unwrap_or_else(|| "unknown".into());
    println!("cargo:rustc-env=PERFBENCH_RUSTC={version}");

    let crates =
        Path::new(&std::env::var("CARGO_MANIFEST_DIR").expect("manifest dir")).join("../crates");
    let mut files = Vec::new();
    sources(&crates, &mut files);
    files.sort();
    // FNV-1a over relative path and contents of every source file.
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in &files {
        let rel = f
            .strip_prefix(&crates)
            .unwrap_or(f)
            .to_string_lossy()
            .into_owned();
        for b in rel.bytes().chain(std::fs::read(f).unwrap_or_default()) {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    println!("cargo:rustc-env=PERFBENCH_SOURCE_DIGEST={h:016x}");
    println!("cargo:rerun-if-changed=../crates");
    println!("cargo:rerun-if-changed=build.rs");
}
