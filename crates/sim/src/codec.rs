//! Shared line-format primitives for the persisted envelopes.
//!
//! The `simty-checkpoint/v1` snapshot format ([`crate::checkpoint`]),
//! the `simty-campaign/v1` journal (in `simty-bench`), and the
//! [`SimReport`](crate::metrics::SimReport) record codec all speak the
//! same dialect: line-oriented `key=value` text, comma-separated fields,
//! reserved characters percent-escaped, `f64`s persisted as their exact
//! 16-hex-digit bit patterns, and bodies checksummed with FNV-1a 64.
//! This module is the single home of those primitives so every consumer
//! stays byte-compatible, and of the one exact-bits
//! [`MetricsRegistry`] codec ([`write_registry`] / [`read_registry`])
//! that both the checkpoint body and the fleet's shard state use.

use std::borrow::Cow;
use std::str::FromStr;

use simty_core::time::{SimDuration, SimTime};
use simty_obs::{Histogram, MetricsRegistry};

/// FNV-1a 64-bit, the body/record checksum.
#[must_use]
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Percent-escapes the characters the line format reserves.
#[must_use]
pub fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    esc_into(&mut out, s);
    out
}

/// Appends `s` to `out` percent-escaped, as [`esc`] would render it.
pub(crate) fn esc_into(out: &mut String, s: &str) {
    if !s.bytes().any(|b| matches!(b, b'%' | b',' | b':' | b'\n' | b'\r')) {
        out.push_str(s);
        return;
    }
    for ch in s.chars() {
        match ch {
            '%' => out.push_str("%25"),
            ',' => out.push_str("%2C"),
            ':' => out.push_str("%3A"),
            '\n' => out.push_str("%0A"),
            '\r' => out.push_str("%0D"),
            c => out.push(c),
        }
    }
}

fn hex_val(b: u8) -> Option<u8> {
    match b {
        b'0'..=b'9' => Some(b - b'0'),
        b'a'..=b'f' => Some(b - b'a' + 10),
        b'A'..=b'F' => Some(b - b'A' + 10),
        _ => None,
    }
}

/// Reverses [`esc`]. Invalid escapes pass through verbatim. The escape
/// set is pure ASCII, so multi-byte characters pass through untouched.
#[must_use]
pub fn unesc(s: &str) -> String {
    unesc_cow(s).into_owned()
}

/// [`unesc`] that borrows `s` when it holds no escape at all.
#[must_use]
pub(crate) fn unesc_cow(s: &str) -> Cow<'_, str> {
    if !s.contains('%') {
        return Cow::Borrowed(s);
    }
    let bytes = s.as_bytes();
    let mut out = String::with_capacity(s.len());
    let mut i = 0;
    while i < s.len() {
        if bytes[i] == b'%' && i + 2 < s.len() {
            if let (Some(hi), Some(lo)) = (hex_val(bytes[i + 1]), hex_val(bytes[i + 2])) {
                out.push((hi * 16 + lo) as char);
                i += 3;
                continue;
            }
        }
        let ch = s[i..].chars().next().expect("i is on a char boundary");
        out.push(ch);
        i += ch.len_utf8();
    }
    Cow::Owned(out)
}

/// An `f64` as its exact 16-hex-digit bit pattern: round-trips every
/// value (NaN payloads included) with no formatting loss.
#[must_use]
pub fn f64_hex(v: f64) -> String {
    let mut out = String::with_capacity(16);
    push_hex16(&mut out, v.to_bits());
    out
}

/// Appends `v` as exactly 16 lower-case hex digits (`{:016x}`).
pub(crate) fn push_hex16(out: &mut String, v: u64) {
    const DIGITS: &[u8; 16] = b"0123456789abcdef";
    let mut buf = [0u8; 16];
    for (i, b) in buf.iter_mut().enumerate() {
        *b = DIGITS[(v >> (60 - 4 * i) & 0xf) as usize];
    }
    out.push_str(std::str::from_utf8(&buf).expect("hex digits are ASCII"));
}

/// Appends `v` in decimal, as `{v}` would render it.
pub(crate) fn push_u64(out: &mut String, mut v: u64) {
    let mut buf = [0u8; 20];
    let mut i = buf.len();
    loop {
        i -= 1;
        buf[i] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    out.push_str(std::str::from_utf8(&buf[i..]).expect("decimal digits are ASCII"));
}

/// Reverses [`f64_hex`].
#[must_use]
pub fn f64_from_hex(s: &str) -> Option<f64> {
    u64::from_str_radix(s, 16).ok().map(f64::from_bits)
}

/// A value the line format appends in place, with no temporary string:
/// integers and instants in decimal (milliseconds for times), `f64`s
/// as their 16-hex-digit bit pattern, flags as `0`/`1`, `None` as
/// `none`, arrays comma-joined, `&str` verbatim and [`Esc`] text
/// percent-escaped. The [`kv!`] and [`join!`] macros compose fields
/// into lines.
pub(crate) trait Field {
    /// Appends the value's encoding to `out`.
    fn put(&self, out: &mut String);
}

/// Text appended percent-escaped (see [`esc_into`]).
pub(crate) struct Esc<'a>(pub &'a str);

impl Field for Esc<'_> {
    fn put(&self, out: &mut String) {
        esc_into(out, self.0);
    }
}

impl Field for str {
    fn put(&self, out: &mut String) {
        out.push_str(self);
    }
}

impl<T: Field + ?Sized> Field for &T {
    fn put(&self, out: &mut String) {
        (**self).put(out);
    }
}

macro_rules! decimal_fields {
    ($($t:ty),*) => {$(
        impl Field for $t {
            fn put(&self, out: &mut String) {
                push_u64(out, *self as u64);
            }
        }
    )*};
}
decimal_fields!(u8, u16, u32, u64, usize);

impl Field for bool {
    fn put(&self, out: &mut String) {
        out.push(if *self { '1' } else { '0' });
    }
}

impl Field for f64 {
    fn put(&self, out: &mut String) {
        push_hex16(out, self.to_bits());
    }
}

impl Field for SimTime {
    fn put(&self, out: &mut String) {
        push_u64(out, self.as_millis());
    }
}

impl Field for SimDuration {
    fn put(&self, out: &mut String) {
        push_u64(out, self.as_millis());
    }
}

impl<T: Field> Field for Option<T> {
    fn put(&self, out: &mut String) {
        match self {
            Some(v) => v.put(out),
            None => out.push_str("none"),
        }
    }
}

impl<T: Field, const N: usize> Field for [T; N] {
    fn put(&self, out: &mut String) {
        for (i, v) in self.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            v.put(out);
        }
    }
}

/// Appends [`Field`]s to a `&mut String`, separated by the `sep` char.
macro_rules! join {
    ($out:expr, $sep:literal, $first:expr $(, $rest:expr)* $(,)?) => {{
        let out: &mut String = $out;
        $crate::codec::Field::put(&$first, out);
        $(
            out.push($sep);
            $crate::codec::Field::put(&$rest, out);
        )*
    }};
}

/// Appends one `key=field,field,…` line of [`Field`]s.
macro_rules! kv {
    ($out:expr, $key:expr, $($field:expr),+ $(,)?) => {{
        let out: &mut String = $out;
        out.push_str($key);
        out.push('=');
        $crate::codec::join!(out, ',', $($field),+);
        out.push('\n');
    }};
}

pub(crate) use {join, kv};

/// A cursor over a body of `key=value` lines that counts the lines it
/// consumed, so readers can report where a body went wrong.
#[derive(Debug, Clone)]
pub struct KvLines<'a> {
    lines: std::str::Lines<'a>,
    line_no: usize,
}

impl<'a> KvLines<'a> {
    /// A cursor at the first line of `body`.
    #[must_use]
    pub fn new(body: &'a str) -> Self {
        KvLines {
            lines: body.lines(),
            line_no: 0,
        }
    }

    /// The 1-based number of the last line consumed (or attempted).
    #[must_use]
    pub fn line_no(&self) -> usize {
        self.line_no
    }

    /// Consumes the next line only if it is `key=...`, returning its
    /// value; leaves the cursor untouched otherwise. For keys newer
    /// writers may emit that older bodies lack.
    pub fn opt_kv(&mut self, key: &str) -> Option<&'a str> {
        let mut look = self.lines.clone();
        let (k, v) = look.next()?.split_once('=')?;
        if k != key {
            return None;
        }
        self.lines = look;
        self.line_no += 1;
        Some(v)
    }

    /// Consumes the next line, which must be `key=...`, and returns its
    /// value.
    ///
    /// # Errors
    ///
    /// A message naming the missing or unexpected key.
    pub fn kv(&mut self, key: &str) -> Result<&'a str, String> {
        self.line_no += 1;
        let line = self
            .lines
            .next()
            .ok_or_else(|| format!("unexpected end of body (wanted `{key}`)"))?;
        let (k, v) = line
            .split_once('=')
            .ok_or_else(|| format!("expected `{key}=...`, found `{line}`"))?;
        if k != key {
            return Err(format!("expected key `{key}`, found `{k}`"));
        }
        Ok(v)
    }
}

/// Appends `m`'s series as `key=value` lines: `obs_counters=N` then one
/// `oc=<value>,<name>` per counter, `obs_gauges=N` then
/// `og=<bits>,<name>`, and `obs_hists=N` then
/// `oh=<name>,<bounds>,<bound…>,<count…>,<sum bits>,<count>,<nonfinite>`,
/// each section in name order. Floats are exact bit patterns, so
/// [`read_registry`] reproduces every series bit for bit. Help text is
/// not encoded: it belongs to whoever registers the families.
pub fn write_registry(out: &mut String, m: &MetricsRegistry) {
    kv!(out, "obs_counters", m.counters().count());
    for (name, value) in m.counters() {
        kv!(out, "oc", value, Esc(name));
    }
    kv!(out, "obs_gauges", m.gauges().count());
    for (name, value) in m.gauges() {
        kv!(out, "og", value, Esc(name));
    }
    kv!(out, "obs_hists", m.histograms().count());
    for (name, h) in m.histograms() {
        out.push_str("oh=");
        join!(out, ',', Esc(name), h.bounds().len());
        for b in h.bounds() {
            out.push(',');
            b.put(out);
        }
        for c in h.counts() {
            out.push(',');
            c.put(out);
        }
        out.push(',');
        join!(out, ',', h.sum(), h.count(), h.nonfinite());
        out.push('\n');
    }
}

fn parse_num<T: FromStr>(s: &str) -> Result<T, String> {
    s.parse().map_err(|_| format!("invalid integer `{s}`"))
}

fn parse_bits(s: &str) -> Result<f64, String> {
    f64_from_hex(s).ok_or_else(|| format!("invalid float bits `{s}`"))
}

/// Splits `value` into exactly two comma-separated fields.
fn pair(value: &str) -> Result<(&str, &str), String> {
    match value.split(',').collect::<Vec<_>>()[..] {
        [a, b] => Ok((a, b)),
        ref parts => Err(format!("expected 2 fields, got {}", parts.len())),
    }
}

/// Reads the lines [`write_registry`] wrote, setting every series into
/// `m` (series `m` already holds keep their help text and are
/// overwritten). A histogram line may omit the trailing non-finite
/// count, as checkpoints written before it existed do.
///
/// # Errors
///
/// A message describing the first malformed line; `lines` then points
/// at it.
pub fn read_registry(lines: &mut KvLines<'_>, m: &mut MetricsRegistry) -> Result<(), String> {
    let n: usize = parse_num(lines.kv("obs_counters")?)?;
    for _ in 0..n {
        let (value, name) = pair(lines.kv("oc")?)?;
        m.set_counter(&unesc(name), parse_num(value)?);
    }
    let n: usize = parse_num(lines.kv("obs_gauges")?)?;
    for _ in 0..n {
        let (value, name) = pair(lines.kv("og")?)?;
        m.set_gauge(&unesc(name), parse_bits(value)?);
    }
    let n: usize = parse_num(lines.kv("obs_hists")?)?;
    for _ in 0..n {
        let parts: Vec<&str> = lines.kv("oh")?.split(',').collect();
        if parts.len() < 2 {
            return Err("histogram needs at least a name and a bound count".to_owned());
        }
        let nb: usize = parse_num(parts[1])?;
        if nb > parts.len() {
            return Err(format!("histogram claims {nb} bounds in {} fields", parts.len()));
        }
        // name, bound count, bounds, counts (one overflow bucket), sum,
        // count, plus the optional non-finite quarantine count.
        let want = 2 + nb + (nb + 1) + 2;
        if parts.len() != want && parts.len() != want + 1 {
            return Err(format!(
                "histogram with {nb} bounds expects {want} or {} fields, got {}",
                want + 1,
                parts.len()
            ));
        }
        let bounds = parts[2..2 + nb]
            .iter()
            .map(|raw| parse_bits(raw))
            .collect::<Result<Vec<_>, _>>()?;
        if bounds.is_empty()
            || !bounds.iter().all(|b| b.is_finite())
            || bounds.windows(2).any(|w| w[0] >= w[1])
        {
            return Err("histogram bounds must be finite and strictly increasing".to_owned());
        }
        let counts = parts[2 + nb..2 + nb + nb + 1]
            .iter()
            .map(|raw| parse_num(raw))
            .collect::<Result<Vec<u64>, _>>()?;
        let sum = parse_bits(parts[want - 2])?;
        let count = parse_num(parts[want - 1])?;
        let nonfinite = match parts.get(want) {
            Some(raw) => parse_num(raw)?,
            None => 0,
        };
        m.insert_histogram(
            &unesc(parts[0]),
            Histogram::from_parts(bounds, counts, sum, count).with_nonfinite(nonfinite),
        );
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escaping_round_trips_reserved_characters() {
        for s in [
            "plain",
            "a,b:c",
            "100%",
            "line\nbreak",
            "cr\rlf",
            "%2C literal",
            "β=0.5 → naïve ✓",
            "%β",
        ] {
            assert_eq!(unesc(&esc(s)), s, "round-trip failed for {s:?}");
        }
    }

    #[test]
    fn f64_hex_round_trips_exactly() {
        for v in [0.0, -0.0, 1.5, f64::MAX, f64::MIN_POSITIVE, 1.0 / 3.0] {
            let back = f64_from_hex(&f64_hex(v)).unwrap();
            assert_eq!(back.to_bits(), v.to_bits());
        }
        assert!(f64_from_hex(&f64_hex(f64::NAN)).unwrap().is_nan());
        assert_eq!(f64_from_hex("zz"), None);
    }

    #[test]
    fn fnv_matches_reference_vectors() {
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn registry_round_trips_bit_for_bit() {
        let mut m = MetricsRegistry::new();
        m.add("c{k=\"a,b:c\"}", 7);
        m.set_gauge("g", 1.0 / 3.0);
        m.register_histogram("h", vec![0.1, 1.0]);
        m.observe("h", 0.3);
        m.observe("h", 5.0);
        let mut text = String::new();
        write_registry(&mut text, &m);
        let mut back = MetricsRegistry::new();
        read_registry(&mut KvLines::new(&text), &mut back).unwrap();
        assert_eq!(back, m);
        let mut again = String::new();
        write_registry(&mut again, &back);
        assert_eq!(again, text);
        // Malformed bounds and hostile bound counts are typed errors,
        // not panics.
        for hist in ["h,0,0,0000000000000000,0", "h,18446744073709551615,0"] {
            let bad = format!("obs_counters=0\nobs_gauges=0\nobs_hists=1\noh={hist}\n");
            let mut m = MetricsRegistry::new();
            assert!(read_registry(&mut KvLines::new(&bad), &mut m).is_err(), "{hist}");
        }
    }
}
