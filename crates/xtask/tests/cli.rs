//! The command-line contract CI keys off: `lint` exits 0 on a clean
//! tree, 1 on findings, 2 on a usage error and 3 when the run itself is
//! broken. Each case runs the built binary with `--root` on a throwaway
//! tree under the system temp directory.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// A throwaway tree under the system temp directory, removed on drop.
struct Tree(PathBuf);

impl Tree {
    fn empty(name: &str) -> Tree {
        let dir = std::env::temp_dir().join(format!("fluxlint-cli-{}-{name}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        Tree(dir)
    }

    /// A tree holding one library crate, `crates/demo`, whose manifest
    /// opts into the shared lint table and whose `src/lib.rs` is `lib`.
    fn with_lib(name: &str, lib: &str) -> Tree {
        let tree = Tree::empty(name);
        let krate = tree.0.join("crates").join("demo");
        fs::create_dir_all(krate.join("src")).unwrap();
        fs::write(
            krate.join("Cargo.toml"),
            "[package]\nname = \"demo\"\n\n[lints]\nworkspace = true\n",
        )
        .unwrap();
        fs::write(krate.join("src").join("lib.rs"), lib).unwrap();
        tree
    }
}

impl Drop for Tree {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

const PANICKING: &str = "pub fn digit(s: &str) -> u32 {\n    s.parse().unwrap()\n}\n";

const WAIVED: &str = "pub fn digit(s: &str) -> u32 {\n    \
                      // fluxlint: allow(no-panic) — callers pass one ASCII digit\n    \
                      s.parse().unwrap()\n}\n";

fn lint(root: &Path, extra: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_fluxprint-xtask"))
        .arg("lint")
        .arg("--root")
        .arg(root)
        .args(extra)
        .output()
        .unwrap()
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

#[test]
fn a_finding_exits_1_and_names_the_rule_and_file() {
    let tree = Tree::with_lib("finding", PANICKING);
    let out = lint(&tree.0, &[]);
    assert_eq!(out.status.code(), Some(1), "stderr: {}", stderr(&out));
    let text = stdout(&out);
    assert!(
        text.contains("crates/demo/src/lib.rs:2 [no-panic] in `digit`"),
        "{text}"
    );
    assert!(text.contains("1 finding(s) no-panic:1"), "{text}");
}

#[test]
fn a_reasoned_waiver_is_clean_in_both_formats() {
    let tree = Tree::with_lib("waived", WAIVED);
    let out = lint(&tree.0, &[]);
    assert_eq!(out.status.code(), Some(0), "stdout: {}", stdout(&out));
    assert!(stdout(&out).contains("0 finding(s)"));
    assert!(stdout(&out).contains("1 waived"));

    let out = lint(&tree.0, &["--format", "json"]);
    assert_eq!(out.status.code(), Some(0), "stdout: {}", stdout(&out));
    let json = stdout(&out);
    assert!(json.contains("\"findings\": []"), "{json}");
    assert!(
        json.contains("\"waiver_reason\": \"callers pass one ASCII digit\""),
        "{json}"
    );
    assert!(
        json.contains("\"summary\": {\"findings\": 0, \"waived\": 1"),
        "{json}"
    );
}

#[test]
fn unknown_flags_are_usage_errors() {
    let tree = Tree::with_lib("flags", WAIVED);
    for flag in ["--diff-baseline", "--write-baseline", "--json", "--bogus"] {
        for extra in [&[flag][..], &[flag, "lint_baseline.json"][..]] {
            let out = lint(&tree.0, extra);
            assert_eq!(out.status.code(), Some(2), "{extra:?}: {}", stderr(&out));
            assert!(
                stderr(&out).contains(&format!("unknown flag `{flag}`")),
                "{extra:?}: {}",
                stderr(&out)
            );
        }
    }
    let out = lint(&tree.0, &["--format", "xml"]);
    assert_eq!(out.status.code(), Some(2), "{}", stderr(&out));
}

#[test]
fn a_root_without_rust_sources_is_an_internal_error() {
    let empty = Tree::empty("empty");
    let missing = empty.0.join("no-such-dir");
    // A manifest alone is not enough: nothing was linted.
    let manifest_only = Tree::with_lib("manifest-only", "");
    fs::remove_dir_all(manifest_only.0.join("crates").join("demo").join("src")).unwrap();
    for root in [&empty.0, &missing, &manifest_only.0] {
        let out = lint(root, &[]);
        assert_eq!(
            out.status.code(),
            Some(3),
            "{}: {}",
            root.display(),
            stdout(&out)
        );
        assert!(
            stderr(&out).contains(&root.display().to_string()),
            "{}",
            stderr(&out)
        );
        assert!(stdout(&out).is_empty(), "{}", stdout(&out));
    }
}
