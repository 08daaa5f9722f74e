//! The byte-offset LIKE matcher ([`asqp_db::expr::like_match`]) against
//! the character-vector reference ([`asqp_db::testkit::like_match_chars`])
//! on random text and patterns over an alphabet that mixes the wildcards
//! with one-, two- and three-byte characters, so a wildcard meets a
//! literal `%` or `_` in the text and `_` meets multi-byte characters.

use asqp_db::expr::like_match;
use asqp_db::testkit::like_match_chars;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const ALPHABET: [char; 6] = ['a', 'b', '%', '_', 'é', '日'];

fn word(rng: &mut StdRng, max_len: usize) -> String {
    let len = rng.random_range(0..=max_len);
    (0..len)
        .map(|_| ALPHABET[rng.random_range(0..ALPHABET.len())])
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2000))]

    #[test]
    fn like_match_agrees_with_the_char_reference(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let text = word(&mut rng, 9);
        for _ in 0..8 {
            let pattern = word(&mut rng, 6);
            prop_assert_eq!(
                like_match(&text, &pattern),
                like_match_chars(&text, &pattern),
                "{:?} LIKE {:?}",
                text,
                pattern
            );
        }
    }
}
