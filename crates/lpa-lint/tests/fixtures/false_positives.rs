//! Fixture: constructs that look like violations but are not. Expected:
//! zero findings even when linted as library code under a costmodel path.

/// Doc comment mentioning HashMap and `.sum::<f32>()` must not fire.
pub fn strings_and_comments() -> String {
    // A line comment with HashMap and .sum::<f32>() inside.
    /* A block comment: HashMap::new(); x.deploy(1); */
    let plain = "a HashMap and `if let QueryOutcome::Completed` in a string";
    let raw = r#"raw: .deploy(7) HashSet"#;
    let raw_hashes = r##"deeper raw: "#  .sum::<f32>() vec![1]"##;
    let byte = b"HashMap";
    let byte_raw = br#"QueryOutcome as Q"#;
    format!("{plain}{raw}{raw_hashes}{byte:?}{byte_raw:?}")
}

/// Identifiers that merely contain rule trigger names must not fire.
pub fn lookalike_idents(hash_map_len: usize, deploy_count: u32) -> f64 {
    let query_outcome_total = 1.0f64;
    query_outcome_total + hash_map_len as f64 + f64::from(deploy_count)
}

/// A char literal `'u'` and lifetimes must not confuse the lexer.
pub fn chars_and_lifetimes<'a>(s: &'a str) -> (&'a str, char) {
    (s, 'u')
}
