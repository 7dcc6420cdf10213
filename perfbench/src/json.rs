//! A JSON syntax check for the exports the `cluster` workload produces.
//!
//! The exported Chrome trace runs to megabytes, and the vendored
//! `serde_json` stand-in takes minutes to parse that much, so the check is
//! a single linear pass that builds nothing: it only proves the text
//! parses.

/// Whether `text` is one complete JSON value (RFC 8259 syntax).
pub fn is_valid(text: &str) -> bool {
    let mut p = Parser {
        b: text.as_bytes(),
        i: 0,
    };
    p.ws();
    p.value(0) && {
        p.ws();
        p.i == p.b.len()
    }
}

/// Nesting deeper than this is refused rather than risking the stack.
const MAX_DEPTH: usize = 256;

struct Parser<'a> {
    b: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<u8> {
        self.b.get(self.i).copied()
    }

    fn eat(&mut self, c: u8) -> bool {
        let hit = self.peek() == Some(c);
        self.i += usize::from(hit);
        hit
    }

    fn ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.i += 1;
        }
    }

    fn literal(&mut self, word: &[u8]) -> bool {
        let hit = self.b[self.i..].starts_with(word);
        self.i += if hit { word.len() } else { 0 };
        hit
    }

    fn value(&mut self, depth: usize) -> bool {
        if depth > MAX_DEPTH {
            return false;
        }
        match self.peek() {
            Some(b'{') => self.seq(b'}', depth, |p, d| {
                p.string()
                    && {
                        p.ws();
                        p.eat(b':')
                    }
                    && {
                        p.ws();
                        p.value(d)
                    }
            }),
            Some(b'[') => self.seq(b']', depth, |p, d| p.value(d)),
            Some(b'"') => self.string(),
            Some(b't') => self.literal(b"true"),
            Some(b'f') => self.literal(b"false"),
            Some(b'n') => self.literal(b"null"),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => false,
        }
    }

    /// `open item (, item)* close` with whitespace between tokens.
    fn seq(&mut self, close: u8, depth: usize, item: fn(&mut Self, usize) -> bool) -> bool {
        self.i += 1;
        self.ws();
        if self.eat(close) {
            return true;
        }
        loop {
            if !item(self, depth + 1) {
                return false;
            }
            self.ws();
            if self.eat(close) {
                return true;
            }
            if !self.eat(b',') {
                return false;
            }
            self.ws();
        }
    }

    fn string(&mut self) -> bool {
        if !self.eat(b'"') {
            return false;
        }
        while let Some(c) = self.peek() {
            self.i += 1;
            match c {
                b'"' => return true,
                b'\\' => {
                    let ok = match self.peek() {
                        Some(b'"' | b'\\' | b'/' | b'b' | b'f' | b'n' | b'r' | b't') => {
                            self.i += 1;
                            true
                        }
                        Some(b'u') => {
                            let hex = self.b.get(self.i + 1..self.i + 5);
                            self.i += 5;
                            hex.is_some_and(|h| h.iter().all(u8::is_ascii_hexdigit))
                        }
                        _ => false,
                    };
                    if !ok {
                        return false;
                    }
                }
                0..=0x1f => return false,
                _ => {}
            }
        }
        false
    }

    fn digits(&mut self) -> usize {
        let start = self.i;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.i += 1;
        }
        self.i - start
    }

    fn number(&mut self) -> bool {
        self.eat(b'-');
        let leading_zero = self.peek() == Some(b'0');
        let int = self.digits();
        if int == 0 || (leading_zero && int > 1) {
            return false;
        }
        if self.eat(b'.') && self.digits() == 0 {
            return false;
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.i += 1;
            if !self.eat(b'+') {
                self.eat(b'-');
            }
            if self.digits() == 0 {
                return false;
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::is_valid;

    #[test]
    fn accepts_json() {
        for ok in [
            "0",
            "-1.5e+3",
            "\"a\\u00e9\\n\"",
            " [1, 2.0, true, false, null] ",
            "{\"traceEvents\": [{\"ph\": \"X\", \"ts\": 1e-7}], \"x\": {}}",
            "[]",
        ] {
            assert!(is_valid(ok), "{ok}");
        }
    }

    #[test]
    fn rejects_broken_json() {
        for bad in [
            "",
            "[1, 2",
            "{\"a\" 1}",
            "{\"a\": 1,}",
            "01",
            "1.",
            "\"unterminated",
            "[1] 2",
            "nul",
            "{\"traceEvents\": [",
        ] {
            assert!(!is_valid(bad), "{bad}");
        }
    }

    #[test]
    fn refuses_runaway_nesting() {
        let deep = "[".repeat(10_000) + &"]".repeat(10_000);
        assert!(!is_valid(&deep));
    }
}
