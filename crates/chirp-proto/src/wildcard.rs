//! Glob-style matching of `*` patterns, shared by every layer that
//! selects by pattern: ACL subjects on the server, catalog owners in
//! pool discovery, and record attributes in GEMS queries.

/// Glob-style match where `*` matches any (possibly empty) substring.
///
/// Classic two-pointer algorithm with backtracking to the most recent
/// star; linear in practice for ACL-sized inputs.
// Inlinable across crates: the server's ACL check calls it on every
// request, as it did when the two lived in one crate.
#[inline]
pub fn wildcard_match(pattern: &str, text: &str) -> bool {
    let p: Vec<char> = pattern.chars().collect();
    let t: Vec<char> = text.chars().collect();
    let (mut pi, mut ti) = (0usize, 0usize);
    let mut star: Option<(usize, usize)> = None;
    while ti < t.len() {
        if pi < p.len() && (p[pi] == t[ti]) {
            pi += 1;
            ti += 1;
        } else if pi < p.len() && p[pi] == '*' {
            star = Some((pi, ti));
            pi += 1;
        } else if let Some((sp, st)) = star {
            pi = sp + 1;
            ti = st + 1;
            star = Some((sp, st + 1));
        } else {
            return false;
        }
    }
    while pi < p.len() && p[pi] == '*' {
        pi += 1;
    }
    pi == p.len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn wildcard_semantics() {
        assert!(wildcard_match(
            "hostname:*.cse.nd.edu",
            "hostname:laptop.cse.nd.edu"
        ));
        assert!(!wildcard_match(
            "hostname:*.cse.nd.edu",
            "hostname:evil.example.com"
        ));
        assert!(wildcard_match(
            "globus:/O=NotreDame/*",
            "globus:/O=NotreDame/CN=alice"
        ));
        assert!(wildcard_match("*", "anything:at all"));
        assert!(wildcard_match("a*b*c", "aXXbYYc"));
        assert!(!wildcard_match("a*b*c", "aXXbYY"));
        assert!(wildcard_match("abc", "abc"));
        assert!(!wildcard_match("abc", "ab"));
        // `*` may match the empty string.
        assert!(wildcard_match("ab*", "ab"));
    }

    proptest! {
        #[test]
        fn wildcard_literal_matches_self(s in "[a-z:./]{0,32}") {
            prop_assert!(wildcard_match(&s, &s));
        }

        #[test]
        fn wildcard_star_prefix(s in "[a-z]{0,16}", t in "[a-z]{0,16}") {
            let pattern = format!("{s}*");
            let text = format!("{s}{t}");
            let matched = wildcard_match(&pattern, &text);
            prop_assert!(matched);
        }
    }
}
