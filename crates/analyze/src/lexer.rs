//! A small, total Rust lexer.
//!
//! Produces a token stream whose spans exactly tile the input: every byte
//! of the source belongs to exactly one token, tokens are emitted in
//! order, and the lexer never fails — unterminated strings and comments
//! lex to the end of input, and bytes that fit no rule become one-byte
//! [`TokenKind::Punct`] tokens. Totality is what lets the lint driver
//! run over arbitrary (even mid-edit) source without a recovery story,
//! and it is property-tested in `tests/prop.rs`.
//!
//! The surface covered is exactly what the lint passes need to be
//! comment- and string-blind: raw strings with any `#` count, byte and raw-byte strings,
//! char vs. lifetime disambiguation, raw identifiers (`r#match`),
//! nested block comments, and numeric literals with suffixes.

/// What a token is. Lints mostly care about `Ident`, `Punct`, and the
/// string-literal kinds (to know what is *not* code).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokenKind {
    /// Horizontal/vertical whitespace run.
    Whitespace,
    /// `// ...` (including `///` and `//!` doc comments) up to newline.
    LineComment,
    /// `/* ... */`, nesting tracked; unterminated runs to EOF.
    BlockComment,
    /// Identifier or keyword, including raw identifiers (`r#match`).
    Ident,
    /// `'a`, `'_`, `'static` — a lifetime, not a char literal.
    Lifetime,
    /// `"..."` string literal (escapes consumed, not validated).
    Str,
    /// `r"..."` / `r#"..."#` raw string literal.
    RawStr,
    /// `b"..."` byte-string literal.
    ByteStr,
    /// `br"..."` / `br#"..."#` raw byte-string literal.
    RawByteStr,
    /// `'x'`, `'\n'` char literal.
    Char,
    /// `b'x'` byte literal.
    Byte,
    /// Integer literal, any base, with suffix (`0xffu8`, `1_000`).
    Int,
    /// Float literal with optional exponent/suffix (`1.5e-3f32`).
    Float,
    /// A single punctuation byte (`::` is two `Punct` tokens), and the
    /// catch-all for bytes no other rule claims.
    Punct,
}

/// One token: kind plus the half-open byte span `[start, end)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Token {
    pub kind: TokenKind,
    pub start: usize,
    pub end: usize,
}

impl Token {
    /// The token's text within `src` (the source it was lexed from).
    pub fn text<'a>(&self, src: &'a str) -> &'a str {
        &src[self.start..self.end]
    }

    /// True for tokens the lint passes skip (whitespace and comments).
    pub(crate) fn is_trivia(&self) -> bool {
        matches!(
            self.kind,
            TokenKind::Whitespace | TokenKind::LineComment | TokenKind::BlockComment
        )
    }
}

/// Lex `src` completely. Infallible; spans tile `[0, src.len())`.
pub fn lex(src: &str) -> Vec<Token> {
    let bytes = src.as_bytes();
    let mut tokens = Vec::new();
    let mut pos = 0;
    while pos < bytes.len() {
        let start = pos;
        let kind = next_token(src, bytes, &mut pos);
        debug_assert!(pos > start, "lexer must always make progress");
        tokens.push(Token {
            kind,
            start,
            end: pos,
        });
    }
    tokens
}

fn is_ident_start(b: u8) -> bool {
    b.is_ascii_alphabetic() || b == b'_' || b >= 0x80
}

fn is_ident_continue(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_' || b >= 0x80
}

/// Advance past one UTF-8 character starting at `*pos`.
fn bump_char(src: &str, pos: &mut usize) {
    let mut p = *pos + 1;
    while p < src.len() && !src.is_char_boundary(p) {
        p += 1;
    }
    *pos = p;
}

fn peek(bytes: &[u8], base: usize, off: usize) -> u8 {
    *bytes.get(base + off).unwrap_or(&0)
}

fn next_token(src: &str, bytes: &[u8], pos: &mut usize) -> TokenKind {
    let b = bytes[*pos];
    let at = |off: usize| -> u8 { peek(bytes, *pos, off) };

    if b.is_ascii_whitespace() {
        while *pos < bytes.len() && bytes[*pos].is_ascii_whitespace() {
            *pos += 1;
        }
        return TokenKind::Whitespace;
    }

    if b == b'/' && at(1) == b'/' {
        while *pos < bytes.len() && bytes[*pos] != b'\n' {
            *pos += 1;
        }
        return TokenKind::LineComment;
    }

    if b == b'/' && at(1) == b'*' {
        *pos += 2;
        let mut depth = 1usize;
        while *pos < bytes.len() && depth > 0 {
            if bytes[*pos] == b'/' && peek(bytes, *pos, 1) == b'*' {
                depth += 1;
                *pos += 2;
            } else if bytes[*pos] == b'*' && peek(bytes, *pos, 1) == b'/' {
                depth -= 1;
                *pos += 2;
            } else {
                bump_char(src, pos);
            }
        }
        return TokenKind::BlockComment;
    }

    // Raw strings, byte strings, and raw identifiers share prefixes with
    // plain identifiers, so try their exact shapes before the ident rule:
    // r"…", r#"…"#, br"…", b"…", b'…', r#ident.
    if b == b'r' || b == b'b' {
        if let Some(kind) = lex_prefixed_literal(src, bytes, pos) {
            return kind;
        }
    }

    if is_ident_start(b) {
        while *pos < bytes.len() && is_ident_continue(bytes[*pos]) {
            *pos += 1;
        }
        return TokenKind::Ident;
    }

    if b.is_ascii_digit() {
        return lex_number(bytes, pos);
    }

    if b == b'"' {
        *pos += 1;
        lex_quoted_body(src, bytes, pos, b'"');
        return TokenKind::Str;
    }

    if b == b'\'' {
        return lex_quote(src, bytes, pos);
    }

    // Single punctuation byte — also the catch-all for anything
    // unrecognised, so the lexer is total. Multi-byte chars that land
    // here (e.g. stray non-ASCII punctuation) advance a full char to
    // keep spans on UTF-8 boundaries.
    bump_char(src, pos);
    TokenKind::Punct
}

/// `r`/`b`-prefixed literal starting at `*pos`, or `None` if this is
/// just an identifier that happens to start with `r`/`b`.
fn lex_prefixed_literal(src: &str, bytes: &[u8], pos: &mut usize) -> Option<TokenKind> {
    let start = *pos;
    let at = |off: usize| -> u8 { peek(bytes, start, off) };
    let b = bytes[start];

    // b'…' byte literal.
    if b == b'b' && at(1) == b'\'' {
        *pos += 1; // consume `b`; lex_quote handles the rest
        let kind = lex_quote(src, bytes, pos);
        return Some(match kind {
            TokenKind::Char => TokenKind::Byte,
            // `b'static` is not real Rust; still lex it as something.
            other => other,
        });
    }

    // b"…" byte string.
    if b == b'b' && at(1) == b'"' {
        *pos += 2;
        lex_quoted_body(src, bytes, pos, b'"');
        return Some(TokenKind::ByteStr);
    }

    // r"…" / r#"…"# / br"…" / br#"…"# raw (byte) strings, and r#ident.
    let (prefix_len, raw_kind) = if b == b'r' {
        (1, TokenKind::RawStr)
    } else if b == b'b' && at(1) == b'r' {
        (2, TokenKind::RawByteStr)
    } else {
        return None;
    };
    let mut hashes = 0usize;
    while at(prefix_len + hashes) == b'#' {
        hashes += 1;
    }
    let quote_off = prefix_len + hashes;
    if at(quote_off) == b'"' {
        *pos += quote_off + 1;
        // Scan for `"` followed by `hashes` hash marks.
        'scan: while *pos < bytes.len() {
            if bytes[*pos] == b'"' {
                for h in 0..hashes {
                    if *bytes.get(*pos + 1 + h).unwrap_or(&0) != b'#' {
                        bump_char(src, pos);
                        continue 'scan;
                    }
                }
                *pos += 1 + hashes;
                return Some(raw_kind);
            }
            bump_char(src, pos);
        }
        return Some(raw_kind); // unterminated: runs to EOF
    }
    // `r#ident` raw identifier (exactly one `#`, then ident start).
    if b == b'r' && hashes == 1 && is_ident_start(at(2)) {
        *pos += 2;
        while *pos < bytes.len() && is_ident_continue(bytes[*pos]) {
            *pos += 1;
        }
        return Some(TokenKind::Ident);
    }
    None
}

/// Body of a `"`- or `'`-delimited literal: consume escapes blindly,
/// stop after the closing delimiter or at EOF.
fn lex_quoted_body(src: &str, bytes: &[u8], pos: &mut usize, close: u8) {
    while *pos < bytes.len() {
        match bytes[*pos] {
            b'\\' => {
                *pos += 1;
                if *pos < bytes.len() {
                    bump_char(src, pos);
                }
            }
            b if b == close => {
                *pos += 1;
                return;
            }
            _ => bump_char(src, pos),
        }
    }
}

/// A `'` token: char literal or lifetime. `'x'` / `'\n'` are chars;
/// `'ident` not followed by a closing quote is a lifetime.
fn lex_quote(src: &str, bytes: &[u8], pos: &mut usize) -> TokenKind {
    let start = *pos;
    let at = |off: usize| -> u8 { peek(bytes, start, off) };
    debug_assert_eq!(bytes[start], b'\'');
    if at(1) == b'\\' {
        // Escape ⇒ definitely a char literal.
        *pos += 1;
        lex_quoted_body(src, bytes, pos, b'\'');
        return TokenKind::Char;
    }
    if is_ident_start(at(1)) {
        // `'a'` is a char; `'a` (no closing quote after one ident char,
        // or more ident chars follow) is a lifetime.
        let mut probe = *pos + 1;
        bump_char(src, &mut probe);
        if *bytes.get(probe).unwrap_or(&0) == b'\'' {
            *pos = probe + 1;
            return TokenKind::Char;
        }
        *pos += 1;
        while *pos < bytes.len() && is_ident_continue(bytes[*pos]) {
            *pos += 1;
        }
        return TokenKind::Lifetime;
    }
    if at(1) != 0 && at(1) != b'\'' {
        // Non-ident single char: `'+'` etc.
        let mut probe = *pos + 1;
        bump_char(src, &mut probe);
        if *bytes.get(probe).unwrap_or(&0) == b'\'' {
            *pos = probe + 1;
            return TokenKind::Char;
        }
    }
    // Lone `'` (or `''`): emit the quote as punctuation.
    *pos += 1;
    TokenKind::Punct
}

fn lex_number(bytes: &[u8], pos: &mut usize) -> TokenKind {
    let mut float = false;
    if bytes[*pos] == b'0' && matches!(peek(bytes, *pos, 1), b'x' | b'o' | b'b') {
        *pos += 2;
        while *pos < bytes.len() && (bytes[*pos].is_ascii_alphanumeric() || bytes[*pos] == b'_') {
            *pos += 1;
        }
        return TokenKind::Int;
    }
    let digits = |pos: &mut usize| {
        while *pos < bytes.len() && (bytes[*pos].is_ascii_digit() || bytes[*pos] == b'_') {
            *pos += 1;
        }
    };
    digits(pos);
    // Fractional part: `.` must be followed by a digit (so `1.max(2)`
    // and `0..n` lex the dot separately).
    if peek(bytes, *pos, 0) == b'.' && peek(bytes, *pos, 1).is_ascii_digit() {
        *pos += 1;
        digits(pos);
        float = true;
    }
    // Exponent: `e`/`E`, optional sign, digits.
    let (e0, e1, e2) = (
        peek(bytes, *pos, 0),
        peek(bytes, *pos, 1),
        peek(bytes, *pos, 2),
    );
    if matches!(e0, b'e' | b'E')
        && (e1.is_ascii_digit() || (matches!(e1, b'+' | b'-') && e2.is_ascii_digit()))
    {
        *pos += if e1.is_ascii_digit() { 2 } else { 3 };
        digits(pos);
        float = true;
    }
    // Suffix (`u32`, `f64`, …) folds into the literal token.
    if is_ident_start(peek(bytes, *pos, 0)) {
        if peek(bytes, *pos, 0) == b'f' {
            float = true;
        }
        while *pos < bytes.len() && is_ident_continue(bytes[*pos]) {
            *pos += 1;
        }
    }
    if float {
        TokenKind::Float
    } else {
        TokenKind::Int
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<(TokenKind, &str)> {
        lex(src)
            .into_iter()
            .filter(|t| !t.is_trivia())
            .map(|t| (t.kind, t.text(src)))
            .collect()
    }

    #[test]
    fn spans_tile_input() {
        let src = "fn main() { let s = r#\"x\"#; /* a /* b */ c */ 'x' }";
        let toks = lex(src);
        let mut pos = 0;
        for t in &toks {
            assert_eq!(t.start, pos, "gap before {t:?}");
            assert!(t.end > t.start);
            pos = t.end;
        }
        assert_eq!(pos, src.len());
    }

    #[test]
    fn raw_strings_and_raw_idents() {
        let k = kinds(r##"let a = r"x"; let b = r#"y " y"#; let r#match = 1;"##);
        assert!(k.contains(&(TokenKind::RawStr, r#"r"x""#)));
        assert!(k.contains(&(TokenKind::RawStr, r###"r#"y " y"#"###)));
        assert!(k.contains(&(TokenKind::Ident, "r#match")));
    }

    #[test]
    fn byte_literals() {
        let k = kinds(r##"b'x' b"hi" br#"raw"# b'\n'"##);
        assert_eq!(k[0].0, TokenKind::Byte);
        assert_eq!(k[1].0, TokenKind::ByteStr);
        assert_eq!(k[2].0, TokenKind::RawByteStr);
        assert_eq!(k[3].0, TokenKind::Byte);
    }

    #[test]
    fn char_vs_lifetime() {
        let k = kinds("'a' 'a 'static '_ '\\'' '+'");
        assert_eq!(
            k.iter().map(|(k, _)| *k).collect::<Vec<_>>(),
            vec![
                TokenKind::Char,
                TokenKind::Lifetime,
                TokenKind::Lifetime,
                TokenKind::Lifetime,
                TokenKind::Char,
                TokenKind::Char,
            ]
        );
    }

    #[test]
    fn nested_block_comment_is_one_token() {
        let src = "a /* x /* y */ z */ b";
        let k = kinds(src);
        assert_eq!(k, vec![(TokenKind::Ident, "a"), (TokenKind::Ident, "b")]);
    }

    #[test]
    fn comment_hides_code_from_lints() {
        let k = kinds("// x.unwrap()\n/* panic!(\"no\") */ real");
        assert_eq!(k, vec![(TokenKind::Ident, "real")]);
    }

    #[test]
    fn numbers() {
        let k = kinds("1 1.5 1e-10 0xffu8 1_000usize 2.0f32 1..2 3.max(4)");
        assert_eq!(k[0].0, TokenKind::Int);
        assert_eq!(k[1].0, TokenKind::Float);
        assert_eq!(k[2], (TokenKind::Float, "1e-10"));
        assert_eq!(k[3], (TokenKind::Int, "0xffu8"));
        assert_eq!(k[4], (TokenKind::Int, "1_000usize"));
        assert_eq!(k[5], (TokenKind::Float, "2.0f32"));
        // `1..2` is Int, Punct, Punct, Int.
        assert_eq!(k[6], (TokenKind::Int, "1"));
        assert_eq!(k[7], (TokenKind::Punct, "."));
        // `3.max(4)`: the dot is not part of the number.
        assert!(k.contains(&(TokenKind::Ident, "max")));
    }

    #[test]
    fn unterminated_inputs_do_not_panic() {
        for src in ["\"abc", "r#\"abc", "/* abc", "'", "b\"", "1e", "r#"] {
            let toks = lex(src);
            assert_eq!(toks.last().map(|t| t.end), Some(src.len()), "{src:?}");
        }
    }
}
