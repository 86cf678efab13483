//! Console + JSON reporting for the experiment binaries.

use serde_json::Value;
use std::fs;
use std::path::Path;

/// Print a figure/table header.
pub fn figure(id: &str, caption: &str) {
    println!();
    println!("== {id}: {caption} ==");
}

/// Print one labeled measurement (a "bar" of the paper's figures).
pub fn bar(label: &str, value: f64, unit: &str) {
    println!("  {label:<38} {value:>12.3} {unit}");
}

/// A named series (one line/group of a figure).
#[derive(Clone, Debug)]
pub struct Series {
    pub label: String,
    pub points: Vec<(String, f64)>,
}

impl serde::Serialize for Series {
    fn to_value(&self) -> Value {
        serde_json::json!({ "label": self.label, "points": self.points })
    }
}

impl Series {
    pub fn new(label: impl Into<String>) -> Self {
        Self {
            label: label.into(),
            points: Vec::new(),
        }
    }

    pub fn push(&mut self, x: impl Into<String>, y: f64) {
        self.points.push((x.into(), y));
    }

    pub fn print(&self) {
        println!("  series: {}", self.label);
        for (x, y) in &self.points {
            println!("    {x:<36} {y:>12.3}");
        }
    }
}

/// Persist experiment output under `results/` for EXPERIMENTS.md.
pub fn save_json(name: &str, value: &Value) {
    let dir = Path::new("results");
    if fs::create_dir_all(dir).is_err() {
        return;
    }
    let path = dir.join(format!("{name}.json"));
    if let Ok(s) = serde_json::to_string_pretty(value) {
        // Atomic write: a result file read by EXPERIMENTS.md tooling should
        // never be observable half-written.
        if lpa_store::atomic_write(&path, s.as_bytes()).is_ok() {
            println!("  [saved {}]", path.display());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn series_accumulates() {
        let mut s = Series::new("RL");
        s.push("0%", 1.0);
        s.push("20%", 2.0);
        assert_eq!(s.points.len(), 2);
        assert_eq!(s.points[1].0, "20%");
    }
}
