//! Fixture: panic-free idioms that must NOT fire.
//!
//! `unwrap_or` is not `unwrap`, slice indexing with a computed position
//! is not map indexing with a borrowed key, an array of borrows after a
//! keyword (`in [&a, &b]`, `return [&a]`, `&mut [&str]`) is not indexing
//! at all, and test code is exempt.

use std::collections::BTreeMap;

pub fn safe(m: &BTreeMap<u32, u32>, k: u32) -> u32 {
    let v = m.get(&k).copied().unwrap_or(0);
    let arr = [1u32, 2, 3];
    arr[(k as usize) % 3] + v
}

pub fn borrowed_arrays<'a>(a: &'a str, b: &'a str, names: &mut [&'a str]) -> [&'a str; 2] {
    for p in [&a, &b] {
        if let Some(slot) = names.first_mut() {
            *slot = *p;
        }
    }
    match [&a, &b] {
        [x, y] if x == y => return [&a, &b].map(|s| *s),
        _ => [b, a],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unwrap_in_tests_is_fine() {
        let m: BTreeMap<u32, u32> = BTreeMap::new();
        let r: Result<u32, ()> = Ok(3);
        assert_eq!(r.unwrap() + safe(&m, 1), 4);
    }
}
