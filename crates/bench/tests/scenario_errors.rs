//! A bad `--scenario` file is a diagnostic, not a crash: the binary exits
//! with status 1 and names the offending line on stderr.

use std::path::PathBuf;
use std::process::Command;

fn write_spec(name: &str, text: &str) -> PathBuf {
    let path = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    std::fs::write(&path, text).expect("write temp spec");
    path
}

fn run_thm1(args: &[&std::ffi::OsStr]) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_thm1_clustering"))
        .args(args)
        .env("DCLUSTER_RESULTS_DIR", env!("CARGO_TARGET_TMPDIR"))
        .env("RUST_BACKTRACE", "0")
        .output()
        .expect("run thm1_clustering");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn bad_scenario_files_exit_1_naming_the_line() {
    for (name, text, line) in [
        (
            "bad_side.scn",
            "scenario bad\ndeploy uniform n=10 side=nan\n",
            2,
        ),
        (
            "bad_churn.scn",
            "scenario bad\ndeploy uniform n=10 side=2\ndynamics churn sleep=2 wake=0.3\n",
            3,
        ),
        (
            "bad_spread.scn",
            "scenario bad\nseed 4\ndeploy uniform n=10 side=2\ndynamics het_power spread=-2\n",
            4,
        ),
    ] {
        let spec = write_spec(name, text);
        let (code, stderr) = run_thm1(&["--scenario".as_ref(), spec.as_os_str()]);
        assert_eq!(code, Some(1), "{name}: stderr was {stderr}");
        assert!(
            stderr.contains(&format!("line {line}")),
            "{name}: stderr must name line {line}: {stderr}"
        );
        assert!(!stderr.contains("panicked"), "{name}: {stderr}");
    }
}

#[test]
fn a_scenario_flag_without_a_value_exits_1() {
    let (code, stderr) = run_thm1(&["--scenario".as_ref()]);
    assert_eq!(code, Some(1), "stderr was {stderr}");
    assert!(stderr.contains("--scenario needs a value"), "{stderr}");
}
