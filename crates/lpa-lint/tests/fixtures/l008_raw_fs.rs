//! L008 fixture: raw durable-state writes outside `lpa-store`. Every line
//! the rule must flag carries a `FINDING` marker.

use std::fs;
use std::fs::File;

pub fn fully_qualified() {
    let _ = std::fs::write("out.bin", b"torn by a crash"); // FINDING L008
    let _ = std::fs::rename("a.tmp", "a.bin"); // FINDING L008
    let _ = std::fs::File::create("b.bin"); // FINDING L008
}

pub fn via_use_alias() {
    let _ = fs::write("out.bin", b"bytes"); // FINDING L008
    let _ = fs::rename("a.tmp", "a.bin"); // FINDING L008
    let _ = File::create("b.bin"); // FINDING L008
}

pub fn not_findings() {
    // Reads are fine — only the write/publish path must be atomic.
    let _ = fs::read("in.bin");
    let _ = File::open("in.bin");
    let _ = fs::remove_file("stale.tmp");
    // A local named `fs` with an unrelated method is not the fs API.
    let fs = 3usize;
    let _ = fs + 1;
}

#[cfg(test)]
mod tests {
    // Test code may write scratch files freely — a torn fixture is loud.
    #[test]
    fn raw_writes_in_tests_are_exempt() {
        let _ = std::fs::write("/tmp/scratch", b"ok");
    }
}
