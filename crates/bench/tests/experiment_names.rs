//! `experiments` takes only experiment names: anything else fails before
//! any experiment runs, and the message lists the names it accepts.

use std::process::Command;

#[test]
fn unknown_arguments_fail_without_running_anything() {
    for args in [
        &["bench"][..],
        &["--quick"],
        &["quick"],
        &["e19"],
        &["e1", "bench"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_experiments"))
            .args(args)
            .output()
            .expect("experiments binary runs");
        assert!(!out.status.success(), "`experiments {args:?}` must fail");
        assert!(
            out.stdout.is_empty(),
            "`experiments {args:?}` ran an experiment"
        );
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(
            err.contains("e1 e2") && err.contains("e18"),
            "the error lists the valid names: {err}"
        );
    }
}
