//! `ltt` run with a stdout whose reader has already gone (`ltt … | head
//! -1`) must end quietly with a non-zero exit code, not panic in
//! `println!`.

use std::process::{Command, Stdio};

const C17: &str = "INPUT(1)\nINPUT(2)\nINPUT(3)\nINPUT(6)\nINPUT(7)\nOUTPUT(22)\nOUTPUT(23)\n10 = NAND(1, 3)\n11 = NAND(3, 6)\n16 = NAND(2, 11)\n19 = NAND(11, 7)\n22 = NAND(10, 16)\n23 = NAND(16, 19)\n";

#[test]
fn closed_stdout_ends_the_run_without_a_panic() {
    let bench =
        std::env::temp_dir().join(format!("ltt_closed_stdout_{}.bench", std::process::id()));
    std::fs::write(&bench, C17).unwrap();
    let bench = bench.to_string_lossy().into_owned();
    for argv in [
        &["report", &bench, "--deadline", "25"][..],
        &["check", &bench, "--delta", "31"],
        &["help"],
    ] {
        // The read end is closed before `ltt` starts, so its first write
        // meets a closed pipe on every run.
        let (reader, writer) = std::io::pipe().unwrap();
        drop(reader);
        let run = Command::new(env!("CARGO_BIN_EXE_ltt"))
            .args(argv)
            .stdout(writer)
            .stderr(Stdio::piped())
            .output()
            .unwrap();
        let stderr = String::from_utf8_lossy(&run.stderr);
        assert!(!stderr.contains("panicked"), "{argv:?}: {stderr}");
        assert!(!run.status.success(), "{argv:?}: {:?}", run.status);
    }
    std::fs::remove_file(&bench).unwrap();
}
