//! What the golden-file tests share: one FNV-1a and one
//! compare-or-rewrite of a file under `tests/golden/`.

// Each test binary uses the part it needs.
#![allow(dead_code)]

/// FNV-1a; `fmt::Write` so counters and probe events hash as they print,
/// without allocating.
pub struct Fnv(pub u64);

impl Fnv {
    pub fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    /// The digest of `x`'s `Debug` rendering.
    pub fn of(x: &dyn std::fmt::Debug) -> u64 {
        use std::fmt::Write as _;
        let mut h = Fnv::new();
        write!(h, "{x:?}").expect("hashing cannot fail");
        h.0
    }

    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// Little-endian words.
    pub fn words(&mut self, xs: &[u64]) {
        for x in xs {
            self.bytes(&x.to_le_bytes());
        }
    }
}

impl std::fmt::Write for Fnv {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        self.bytes(s.as_bytes());
        Ok(())
    }
}

/// `rendered` must equal `tests/golden/<file>`, and the first line that
/// does not is the failure. With `UPDATE_GOLDEN` set the file is
/// rewritten first — only when the behaviour it pins is *meant* to change.
pub fn check_golden(file: &str, rendered: &str) {
    let path = format!("{}/tests/golden/{file}", env!("CARGO_MANIFEST_DIR"));
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, rendered).expect("rewrite golden");
    }
    let golden = std::fs::read_to_string(&path).expect("golden file present");
    let hint = "if the change is intentional, rerun this test with UPDATE_GOLDEN=1 and review \
                the diff";
    for (got, want) in rendered.lines().zip(golden.lines()) {
        assert_eq!(got, want, "drifted from tests/golden/{file}; {hint}");
    }
    assert!(
        rendered == golden,
        "line count or line endings drifted from tests/golden/{file}; {hint}"
    );
}
