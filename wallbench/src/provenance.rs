//! Where a result came from: host, source revision, and the size of the
//! code that produced it.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;

/// The repository root: this package's parent directory.
pub fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark package sits inside the repository")
        .to_path_buf()
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

pub fn kernel() -> String {
    fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unknown".to_string())
}

/// `git rev-parse HEAD` of the repository, or `unknown` when the source
/// is not a git checkout (git is not asked to look above the root).
pub fn git_rev(root: &Path) -> String {
    if !root.join(".git").exists() {
        return "unknown".to_string();
    }
    Command::new("git")
        .arg("-C")
        .arg(root)
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn rss_peak_mb() -> Option<f64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Lines of one Rust source file, minus `#[cfg(test)]` items.
pub fn non_test_lines(source: &str) -> usize {
    let mut count = 0;
    let mut skipping = false;
    let mut depth: i64 = 0;
    let mut entered = false;
    for line in source.lines() {
        if !skipping && line.trim() == "#[cfg(test)]" {
            skipping = true;
            depth = 0;
            entered = false;
            continue;
        }
        if skipping {
            for ch in line.chars() {
                match ch {
                    '{' => {
                        depth += 1;
                        entered = true;
                    }
                    '}' => depth -= 1,
                    _ => {}
                }
            }
            // A braceless item (`use ...;`) ends at its semicolon.
            if (entered && depth <= 0) || (!entered && line.trim_end().ends_with(';')) {
                skipping = false;
            }
            continue;
        }
        count += 1;
    }
    count
}

fn rust_lines_under(dir: &Path) -> usize {
    let Ok(entries) = fs::read_dir(dir) else {
        return 0;
    };
    let mut total = 0;
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            total += rust_lines_under(&path);
        } else if path.extension().is_some_and(|e| e == "rs") {
            total += fs::read_to_string(&path).map_or(0, |s| non_test_lines(&s));
        }
    }
    total
}

/// Non-test Rust lines per program crate (each crate's `src/`, outside
/// `vendor/`), sorted by crate directory.
pub fn line_counts(root: &Path) -> Vec<(String, usize)> {
    let mut out = vec![("rndi".to_string(), rust_lines_under(&root.join("src")))];
    if let Ok(entries) = fs::read_dir(root.join("crates")) {
        let mut crates: Vec<_> = entries.flatten().map(|e| e.path()).collect();
        crates.sort();
        for dir in crates {
            let name = dir
                .file_name()
                .map(|n| n.to_string_lossy().into_owned())
                .unwrap_or_default();
            out.push((name, rust_lines_under(&dir.join("src"))));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn test_items_are_not_counted() {
        let src = "use a;\nfn f() {\n}\n#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() {}\n}\nfn g() {}\n#[cfg(test)]\nuse b;\nconst C: u8 = 1;\n";
        assert_eq!(non_test_lines(src), 5);
    }
}
