//! The `japrove` binary's flag validation: a bad value is a usage error
//! (exit 2) naming the flag, never a panic (exit 101), and scheduling
//! options the CLI does not offer (`--schedule learned`,
//! `--feature-store`, `--cost-model`) are rejected the same way.

use std::path::PathBuf;
use std::process::{Command, Output};

fn japrove(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_japrove"))
        .args(args)
        .output()
        .expect("japrove binary runs")
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

/// A one-latch design whose only property holds (bad = constant false).
fn safe_design() -> PathBuf {
    let path = std::env::temp_dir().join(format!("japrove_cli_flags_{}.aag", std::process::id()));
    std::fs::write(&path, "aag 1 0 1 0 0 1\n2 3\n0\n").unwrap();
    path
}

#[test]
fn bad_duration_values_are_usage_errors() {
    let path = safe_design();
    let design = path.to_str().unwrap();
    for flag in ["--per-property", "--total", "--property-timeout"] {
        for bad in ["-1", "0", "nan", "inf", "1e300", "soon"] {
            let out = japrove(&[flag, bad, design]);
            assert_eq!(out.status.code(), Some(2), "{flag} {bad}: {}", stderr(&out));
            let err = stderr(&out);
            assert!(err.contains(flag), "{flag} {bad}: {err}");
        }
        // A sane value passes validation and the run proceeds.
        let out = japrove(&[flag, "2.5", "-q", design]);
        assert_eq!(out.status.code(), Some(0), "{flag} 2.5: {}", stderr(&out));
    }
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn unsupported_scheduling_options_are_rejected() {
    let out = japrove(&["--schedule", "learned", "design.aag"]);
    assert_eq!(out.status.code(), Some(2), "{}", stderr(&out));
    assert!(stderr(&out).contains("steal, fifo"), "{}", stderr(&out));

    for flag in ["--feature-store", "--cost-model"] {
        let out = japrove(&[flag, "f", "design.aag"]);
        assert_eq!(out.status.code(), Some(2), "{flag}: {}", stderr(&out));
        assert!(
            stderr(&out).contains(&format!("unknown option '{flag}'")),
            "{flag}: {}",
            stderr(&out)
        );
    }
}
