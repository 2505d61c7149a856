//! Golden identity of the per-circuit preparation: for every circuit of
//! `iscas85_suite(10)`, a digest of the stem-scoped static-learning table
//! (every bucket in order, `len()` and `constants()`), the whole-circuit
//! reconvergent-stem candidate mask, and the stem-candidate mask of every
//! output cone, pinned in `tests/golden/learning_stems.txt`.
//!
//! Learning and stem selection feed every check; any change to which
//! implications are learned, or in which order a bucket fires them, moves
//! the narrower's event schedule. This test catches such drift at the
//! source, one circuit per line.
//!
//! Regenerate the golden file after an intended change with
//!
//! ```text
//! cargo test --release -p ltt-core --test learning_golden -- --ignored
//! ```

use ltt_core::{CheckSession, ImplicationTable, LearningMode, VerifyConfig};
use ltt_netlist::suite::iscas85_suite;
use ltt_netlist::Circuit;
use ltt_waveform::Level;

const GOLDEN: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden/learning_stems.txt"
);

/// 64-bit FNV-1a, fed one little-endian word at a time.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, x: usize) {
        for byte in (x as u64).to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn mask(&mut self, mask: &[bool]) -> usize {
        self.word(mask.len());
        let mut count = 0;
        for (i, &m) in mask.iter().enumerate() {
            if m {
                self.word(i);
                count += 1;
            }
        }
        count
    }
}

/// One golden line: the circuit's learning table, stem mask and cone
/// stem masks, digested.
fn golden_line(name: &str, circuit: &Circuit) -> String {
    let table = ImplicationTable::learn_stems(circuit);
    let mut buckets = Fnv::new();
    for net in circuit.net_ids() {
        for v in Level::BOTH {
            let bucket = table.implied_by(net, v);
            buckets.word(bucket.len());
            for &(x, w) in bucket {
                buckets.word(x.index());
                buckets.word(w.index());
            }
        }
    }
    let mut constants = Fnv::new();
    for &(net, v) in table.constants() {
        constants.word(net.index());
        constants.word(v.index());
    }

    let prepared = CheckSession::new(
        circuit,
        VerifyConfig {
            learning: LearningMode::Off,
            ..Default::default()
        },
    );
    let mut stems = Fnv::new();
    let num_stems = stems.mask(prepared.stem_candidates());
    let mut cones = Fnv::new();
    let mut cone_stems = 0;
    for &output in circuit.outputs() {
        match prepared.cone(output) {
            None => cones.word(usize::MAX),
            Some(ca) => cone_stems += cones.mask(&ca.stem_candidates()),
        }
    }
    format!(
        "{name} nets {} len {} table {:016x} constants {} {:016x} stems {} {:016x} cone-stems {} {:016x}",
        circuit.num_nets(),
        table.len(),
        buckets.0,
        table.constants().len(),
        constants.0,
        num_stems,
        stems.0,
        cone_stems,
        cones.0,
    )
}

fn golden_lines() -> Vec<String> {
    iscas85_suite(10)
        .iter()
        .map(|e| golden_line(e.name, &e.circuit))
        .collect()
}

#[test]
fn suite_learning_matches_golden() {
    let golden = std::fs::read_to_string(GOLDEN).expect("golden file present");
    let expected: Vec<&str> = golden.lines().filter(|l| !l.starts_with('#')).collect();
    let actual = golden_lines();
    assert_eq!(actual.len(), expected.len(), "one golden line per circuit");
    for (e, a) in expected.iter().zip(&actual) {
        assert_eq!(a, e, "learning digest drifted from the golden file");
    }
}

#[test]
#[ignore = "rewrites the golden file"]
fn regenerate_golden() {
    let mut out = String::from(
        "# learn_stems digest per iscas85_suite(10) circuit: net count, table len,\n\
         # FNV-1a of every bucket in order, constant count + digest,\n\
         # stem-candidate count + digest, summed cone stem count + digest.\n",
    );
    for line in golden_lines() {
        out.push_str(&line);
        out.push('\n');
    }
    std::fs::write(GOLDEN, out).expect("write golden file");
}
