//! Word-level recognition — the paper's stated future work (§III-C2:
//! "recognition of a succession of letters").
//!
//! Letters arrive one at a time from the online pipeline (the hand leaving
//! the pad delimits letters); a [`WordDecoder`] accumulates them and, when
//! the word ends, optionally corrects the letter sequence against a
//! vocabulary by edit distance — the same trick every T9-era input method
//! used, and a natural fit here because the per-letter error patterns are
//! known to be confusions, insertions, or deletions.

/// Levenshtein distance between two ASCII-uppercase words.
///
/// ```
/// use rfipad::words::edit_distance;
/// assert_eq!(edit_distance("GATE", "GATE"), 0);
/// assert_eq!(edit_distance("GATE", "GAZE"), 1);
/// assert_eq!(edit_distance("GATE", "LATE"), 1);
/// assert_eq!(edit_distance("", "ABC"), 3);
/// ```
pub fn edit_distance(a: &str, b: &str) -> usize {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    let mut cur = vec![0usize; b.len() + 1];
    for (i, &ca) in a.iter().enumerate() {
        cur[0] = i + 1;
        for (j, &cb) in b.iter().enumerate() {
            let sub = prev[j] + usize::from(ca != cb);
            cur[j + 1] = sub.min(prev[j + 1] + 1).min(cur[j] + 1);
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    prev[b.len()]
}

/// A decoded word with its correction provenance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodedWord {
    /// The raw letter sequence as recognized (`?` for unrecognized
    /// letters).
    pub raw: String,
    /// The vocabulary word chosen, if correction applied and succeeded.
    pub corrected: Option<String>,
    /// Edit distance between raw and corrected (0 when exact).
    pub distance: usize,
}

impl DecodedWord {
    /// The best available reading: corrected if present, else raw.
    pub fn text(&self) -> &str {
        self.corrected.as_deref().unwrap_or(&self.raw)
    }
}

/// Accumulates per-letter results into words and corrects them against a
/// vocabulary.
#[derive(Debug, Clone, Default)]
pub struct WordDecoder {
    vocabulary: Vec<String>,
    /// Maximum edit distance a correction may bridge (as a fraction of the
    /// word length, rounded up; minimum 1).
    max_distance_frac: f64,
    current: String,
}

impl WordDecoder {
    /// A decoder with no vocabulary (raw pass-through).
    pub fn new() -> Self {
        Self {
            vocabulary: Vec::new(),
            max_distance_frac: 0.34,
            current: String::new(),
        }
    }

    /// A decoder correcting against the given vocabulary (uppercased).
    pub fn with_vocabulary<I, S>(words: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: AsRef<str>,
    {
        let mut decoder = Self::new();
        decoder.vocabulary = words
            .into_iter()
            .map(|w| w.as_ref().to_ascii_uppercase())
            .collect();
        decoder
    }

    /// The vocabulary in use.
    pub fn vocabulary(&self) -> &[String] {
        &self.vocabulary
    }

    /// Feeds one letter result from the recognizer (`None` = a letter was
    /// written but not recognized; it becomes a `?` wildcard).
    pub fn push_letter(&mut self, letter: Option<char>) {
        self.current.push(letter.unwrap_or('?'));
    }

    /// Letters accumulated so far in the open word.
    pub fn pending(&self) -> &str {
        &self.current
    }

    /// Ends the current word and decodes it.
    ///
    /// Returns `None` if no letters were accumulated.
    pub fn end_word(&mut self) -> Option<DecodedWord> {
        if self.current.is_empty() {
            return None;
        }
        let raw = std::mem::take(&mut self.current);
        let budget = ((raw.len() as f64 * self.max_distance_frac).ceil() as usize).max(1);
        let corrected = self
            .vocabulary
            .iter()
            .map(|w| (w, distance_with_wildcards(&raw, w)))
            .filter(|&(_, d)| d <= budget)
            .min_by_key(|&(w, d)| (d, w.len().abs_diff(raw.len())))
            .map(|(w, d)| (w.clone(), d));
        match corrected {
            Some((word, distance)) => Some(DecodedWord {
                raw,
                corrected: Some(word),
                distance,
            }),
            None => Some(DecodedWord {
                raw,
                corrected: None,
                distance: 0,
            }),
        }
    }
}

/// Edit distance where `?` in `raw` matches any single character for free
/// (an unrecognized letter is unknown, not wrong).
fn distance_with_wildcards(raw: &str, word: &str) -> usize {
    let a: Vec<char> = raw.chars().collect();
    let b: Vec<char> = word.chars().collect();
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    let mut cur = vec![0usize; b.len() + 1];
    for (i, &ca) in a.iter().enumerate() {
        cur[0] = i + 1;
        for (j, &cb) in b.iter().enumerate() {
            let cost = usize::from(ca != '?' && ca != cb);
            cur[j + 1] = (prev[j] + cost).min(prev[j + 1] + 1).min(cur[j] + 1);
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    prev[b.len()]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vocab() -> WordDecoder {
        WordDecoder::with_vocabulary(["GATE", "HELP", "TAXI", "EXIT", "INFO", "KLM"])
    }

    #[test]
    fn exact_word_passes_through() {
        let mut d = vocab();
        for c in "GATE".chars() {
            d.push_letter(Some(c));
        }
        let w = d.end_word().expect("word");
        assert_eq!(w.text(), "GATE");
        assert_eq!(w.distance, 0);
    }

    #[test]
    fn single_confusion_corrected() {
        let mut d = vocab();
        for c in "GAZE".chars() {
            d.push_letter(Some(c)); // T misread as Z
        }
        let w = d.end_word().expect("word");
        assert_eq!(w.corrected.as_deref(), Some("GATE"));
        assert_eq!(w.distance, 1);
    }

    #[test]
    fn unrecognized_letter_is_wildcard() {
        let mut d = vocab();
        d.push_letter(Some('E'));
        d.push_letter(None); // missed letter
        d.push_letter(Some('I'));
        d.push_letter(Some('T'));
        let w = d.end_word().expect("word");
        assert_eq!(w.raw, "E?IT");
        assert_eq!(w.corrected.as_deref(), Some("EXIT"));
    }

    #[test]
    fn hopeless_garble_stays_raw() {
        let mut d = vocab();
        for c in "QQQQQQ".chars() {
            d.push_letter(Some(c));
        }
        let w = d.end_word().expect("word");
        assert_eq!(w.corrected, None);
        assert_eq!(w.text(), "QQQQQQ");
    }

    #[test]
    fn empty_word_is_none() {
        let mut d = vocab();
        assert!(d.end_word().is_none());
    }

    #[test]
    fn words_are_independent() {
        let mut d = vocab();
        for c in "KLM".chars() {
            d.push_letter(Some(c));
        }
        assert_eq!(d.end_word().unwrap().text(), "KLM");
        assert_eq!(d.pending(), "");
        for c in "HELP".chars() {
            d.push_letter(Some(c));
        }
        assert_eq!(d.end_word().unwrap().text(), "HELP");
    }

    #[test]
    fn no_vocabulary_means_raw() {
        let mut d = WordDecoder::new();
        for c in "ABC".chars() {
            d.push_letter(Some(c));
        }
        let w = d.end_word().expect("word");
        assert_eq!(w.corrected, None);
        assert_eq!(w.text(), "ABC");
    }

    #[test]
    fn prefers_closer_then_same_length() {
        let d = WordDecoder::with_vocabulary(["CAT", "CATS"]);
        let mut d2 = d.clone();
        for c in "CAT".chars() {
            d2.push_letter(Some(c));
        }
        assert_eq!(d2.end_word().unwrap().text(), "CAT");
    }

    #[test]
    fn edit_distance_symmetry_and_bounds() {
        for (a, b) in [("GATE", "LATE"), ("", "X"), ("ABCD", "DCBA")] {
            assert_eq!(edit_distance(a, b), edit_distance(b, a));
            assert!(edit_distance(a, b) <= a.len().max(b.len()));
        }
    }
}
