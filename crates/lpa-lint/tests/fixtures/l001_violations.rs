//! Fixture: every L001 shape, plus the regions where panicking is allowed.
//! Expected (as lib code): findings on the four marked lines only.

pub fn bad_unwrap(x: Option<u32>) -> u32 {
    x.unwrap() // FINDING
}

pub fn bad_expect(x: Option<u32>) -> u32 {
    x.expect("present") // FINDING
}

pub fn bad_panic(flag: bool) {
    if flag {
        panic!("boom"); // FINDING
    }
}

// `cfg(not(test))` is the code that ships, not a test region.
#[cfg(not(test))]
mod live {
    pub fn shipped(x: Option<u32>) -> u32 {
        x.unwrap() // FINDING
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn unwrap_is_fine_in_tests() {
        let v: Option<u32> = Some(1);
        assert_eq!(v.unwrap(), 1);
        let w: Option<u32> = Some(2);
        w.expect("fine here");
        if false {
            panic!("also fine");
        }
    }
}
