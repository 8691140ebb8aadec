//! Versioned, deterministic binary savestate codec.
//!
//! Dependency-free leaf crate shared by every crate that owns a type a
//! checkpoint carries. The rule is **one encoding per type, next to the
//! type**: each encoded type has exactly one [`Savestate`] impl, in the
//! module that defines it, and every container that holds the type
//! reuses that impl instead of re-coding its layout — dust's
//! `#[derive(Savestate)]` without a proc-macro dependency:
//!
//! * integers, `bool`, `f64`, `usize`, [`Duration`], `String`,
//!   `Option`, `Result`, `Vec`, `Arc<[T]>`, `Arc<T>`, `Box<T>`, arrays
//!   and pairs are implemented here, once;
//! * [`savestate_struct!`] and [`savestate_enum!`] generate `save` and
//!   `load` from one field list (enum tags are explicit `u8`s);
//! * a type whose blob widens or interns a field writes its impl by
//!   hand, still next to the type.
//!
//! Types that restore *into a live object* — an event bus, a whole
//! engine that replans its recorded predictions — keep inherent
//! save/restore methods, because the receiver checks the blob against
//! its own configuration; their bodies call the impls.
//!
//! A savestate is *deterministic*: little-endian integers, `usize` as
//! `u64`, `f64` as its IEEE bit pattern (NaN payloads round-trip),
//! unordered containers written in a sorted order their owner picks
//! (save → load → save is byte-identical), and no wall-clock — time is
//! typed sim-time carried as integers. Every blob starts with [`MAGIC`]
//! and a `u32` [`FORMAT_VERSION`]. Decoding never panics on malformed
//! input: every reader path returns a typed [`SavestateError`], and
//! sequence length prefixes clamp pre-allocation (a forged count cannot
//! OOM the loader).

use std::fmt;
use std::sync::Arc;
use std::time::Duration;

/// Leading magic of every savestate blob.
pub const MAGIC: [u8; 4] = *b"CTBS";

/// Current savestate format version. Bump on any layout change; the
/// reader rejects *newer* versions with a typed error and keeps
/// loading every older version it still understands.
///
/// History: v1 was the original cluster checkpoint layout; v2 extended
/// the embedded `PlanShare` image with the shard layout, the optional
/// per-shard capacity bound and the Bloom admission gate; v3 added
/// per-device chiplet topology, the locality-ranking flag, the operand
/// residency map and its counters; v4 writes the plan-cache counters
/// once per arch class instead of per device, drops each device's
/// failed-planning count and `closed` flag, and writes residency as
/// `(shapes, device)` records; v5 writes each arch class's name and
/// topology once with a class index per device, drops the counts and
/// flags restore derives from the timeline (pending arrivals, open
/// jobs, the breaker flag, each device's pending steal check and
/// probe), the cluster counters that restate per-device ones, the
/// latency log and each job's arrival time; v6 drops the obs bus's
/// config (flight-ring capacity and log flag), which is now a constant
/// of the bus; v7 drops the obs bus's flight ring, its sequence counter
/// and the dumps' event copies, writing only the event log and one
/// `(reason, log length)` mark per dump; v8 puts the `PlanShare` behind
/// one lock, so its image and config drop the shard count, its capacity
/// bound covers the whole cache, each plan-cache key carries the
/// calibration epoch it was planned under, and a bounded cache writes
/// its keys in insertion order; v9 drops the fault injector's
/// admission site (its rate and cursors) and the always-false
/// `abandoned` flag of a cluster `BatchDone` event, and writes the
/// `PlanShare`'s capacity bound, admission gate and gate counters ahead
/// of its memo and keys, so a mismatched share is refused before
/// anything is loaded; v10 checkpoints only an unbounded, admit-all
/// `PlanShare`, so the cluster config drops the share's config and the
/// share image drops its bound, gate and gate counters and writes its
/// keys ahead of its memo, so a key no session can replan is refused
/// before anything is loaded; v11 drops the `PlanShare` image (its keys,
/// its simulation memo and the memo's counters) and writes each arch
/// class's predictions in its class record, which restore replans and
/// checks bit for bit. Each extension changed the layout in place, so
/// older blobs no longer decode (the cluster restore rejects them with
/// a typed [`SavestateError::Mismatch`]).
pub const FORMAT_VERSION: u32 = 11;

/// Cap on speculative pre-allocation while decoding length-prefixed
/// containers. Real lengths above this are still decoded — the vector
/// just grows incrementally instead of trusting the prefix.
const PREALLOC_CAP: usize = 4096;

/// Typed decoding failure. Never a panic: corrupt, truncated or
/// version-skewed blobs all surface as values of this enum.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SavestateError {
    /// The blob's format version is newer than this build understands.
    UnsupportedVersion { found: u32, supported: u32 },
    /// The blob is structurally invalid: bad magic, truncated buffer,
    /// an out-of-range enum tag, or trailing garbage.
    Corrupt(String),
    /// The blob is well-formed but does not match the world it is
    /// being restored into (wrong pool arch, wrong queue capacity, an
    /// unshareable planning fingerprint, ...).
    Mismatch(String),
}

impl fmt::Display for SavestateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SavestateError::UnsupportedVersion { found, supported } => {
                write!(f, "unsupported savestate version {found} (this build reads <= {supported})")
            }
            SavestateError::Corrupt(why) => write!(f, "corrupt savestate: {why}"),
            SavestateError::Mismatch(why) => write!(f, "savestate mismatch: {why}"),
        }
    }
}

impl std::error::Error for SavestateError {}

/// Append-only binary writer. All methods are infallible; call
/// [`Writer::into_bytes`] to take the finished blob. Values go in
/// through their [`Savestate`] impls.
#[derive(Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    pub fn new() -> Self {
        Writer { buf: Vec::new() }
    }

    /// Writer pre-seeded with the blob header ([`MAGIC`] +
    /// [`FORMAT_VERSION`]).
    pub fn with_header() -> Self {
        let mut w = Writer::new();
        w.bytes(&MAGIC);
        FORMAT_VERSION.save(&mut w);
        w
    }

    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Append raw bytes.
    pub fn bytes(&mut self, b: &[u8]) {
        self.buf.extend_from_slice(b);
    }

    /// A sequence's length, carried as `u64` (blob layout is
    /// architecture-free).
    pub fn len_prefix(&mut self, n: usize) {
        (n as u64).save(self);
    }

    /// Write `items` with the layout of a `Vec<T>` (length prefix, then
    /// each item), straight from borrowed values — the writer-side twin
    /// of [`Reader::seq`] for sorted views and non-`Vec` containers.
    pub fn seq<'a, T: Savestate + 'a>(
        &mut self,
        items: impl IntoIterator<Item = &'a T, IntoIter: ExactSizeIterator>,
    ) {
        let items = items.into_iter();
        self.len_prefix(items.len());
        for item in items {
            item.save(self);
        }
    }
}

/// Checked binary reader over a savestate blob. Every accessor
/// validates bounds and returns [`SavestateError::Corrupt`] instead of
/// panicking when the blob lies. Values come out through their
/// [`Savestate`] impls.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    /// Reader that first validates [`MAGIC`] and the format version,
    /// returning the version found in the blob (always `<=`
    /// [`FORMAT_VERSION`] on success).
    pub fn with_header(buf: &'a [u8]) -> Result<(Self, u32), SavestateError> {
        let mut r = Reader::new(buf);
        let magic: [u8; 4] = r.array()?;
        if magic != MAGIC {
            return Err(SavestateError::Corrupt(format!(
                "bad magic {magic:?} (expected {MAGIC:?})"
            )));
        }
        let version = u32::load(&mut r)?;
        if version > FORMAT_VERSION {
            return Err(SavestateError::UnsupportedVersion {
                found: version,
                supported: FORMAT_VERSION,
            });
        }
        Ok((r, version))
    }

    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], SavestateError> {
        if self.remaining() < n {
            return Err(SavestateError::Corrupt(format!(
                "truncated: wanted {n} bytes at offset {}, {} left",
                self.pos,
                self.remaining()
            )));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], SavestateError> {
        Ok(self.take(N)?.try_into().expect("take returns exactly N bytes"))
    }

    /// Length prefix, bounds-checked against the bytes actually left
    /// so a forged count fails fast instead of allocating.
    pub fn len_prefix(&mut self) -> Result<usize, SavestateError> {
        let v = u64::load(self)?;
        if v > (self.remaining() as u64) && v > u32::MAX as u64 {
            return Err(SavestateError::Corrupt(format!("absurd length {v}")));
        }
        Ok(v as usize)
    }

    /// Decode a length-prefixed sequence via `f`, with clamped
    /// pre-allocation.
    pub fn seq<T>(
        &mut self,
        mut f: impl FnMut(&mut Self) -> Result<T, SavestateError>,
    ) -> Result<Vec<T>, SavestateError> {
        let n = self.len_prefix()?;
        let mut out = Vec::with_capacity(n.min(PREALLOC_CAP));
        for _ in 0..n {
            out.push(f(self)?);
        }
        Ok(out)
    }

    /// Assert the whole blob was consumed — trailing garbage is
    /// corruption, not padding.
    pub fn expect_end(&self) -> Result<(), SavestateError> {
        if self.remaining() != 0 {
            return Err(SavestateError::Corrupt(format!(
                "{} trailing bytes after end of state",
                self.remaining()
            )));
        }
        Ok(())
    }
}

/// A type with one blob encoding: [`save`](Savestate::save) appends it
/// to a [`Writer`], [`load`](Savestate::load) rebuilds it from a
/// [`Reader`]. Implement it next to the type — with
/// [`savestate_struct!`] / [`savestate_enum!`] where the layout is the
/// field list, by hand otherwise — and never re-code the layout at a
/// use site. `str` implements only `save`: it loads as a `String`.
pub trait Savestate {
    fn save(&self, w: &mut Writer);
    fn load(r: &mut Reader<'_>) -> Result<Self, SavestateError>
    where
        Self: Sized;
}

/// Little-endian fixed-width integers.
macro_rules! int {
    ($($ty:ty),*) => {$(
        impl Savestate for $ty {
            fn save(&self, w: &mut Writer) {
                w.bytes(&self.to_le_bytes());
            }
            fn load(r: &mut Reader<'_>) -> Result<Self, SavestateError> {
                Ok(<$ty>::from_le_bytes(r.array()?))
            }
        }
    )*};
}

int!(u8, u32, u64);

/// One byte, `0` or `1`; any other byte is `Corrupt`.
impl Savestate for bool {
    fn save(&self, w: &mut Writer) {
        (*self as u8).save(w);
    }
    fn load(r: &mut Reader<'_>) -> Result<Self, SavestateError> {
        match u8::load(r)? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(SavestateError::Corrupt(format!("bad bool byte {b}"))),
        }
    }
}

/// The IEEE bit pattern: a bitwise round trip, NaN payloads included.
impl Savestate for f64 {
    fn save(&self, w: &mut Writer) {
        self.to_bits().save(w);
    }
    fn load(r: &mut Reader<'_>) -> Result<Self, SavestateError> {
        u64::load(r).map(f64::from_bits)
    }
}

/// Carried as `u64`. Decoding a value this platform's `usize` cannot
/// hold is `Corrupt`; sequence lengths go through
/// [`Reader::len_prefix`] instead, which also refuses forged counts.
impl Savestate for usize {
    fn save(&self, w: &mut Writer) {
        (*self as u64).save(w);
    }
    fn load(r: &mut Reader<'_>) -> Result<Self, SavestateError> {
        let v = u64::load(r)?;
        usize::try_from(v).map_err(|_| SavestateError::Corrupt(format!("usize overflow {v}")))
    }
}

/// Whole nanoseconds as `u64`, saturating at `u64::MAX` (~584 years).
impl Savestate for Duration {
    fn save(&self, w: &mut Writer) {
        u64::try_from(self.as_nanos()).unwrap_or(u64::MAX).save(w);
    }
    fn load(r: &mut Reader<'_>) -> Result<Self, SavestateError> {
        u64::load(r).map(Duration::from_nanos)
    }
}

/// Length-prefixed UTF-8; invalid UTF-8 is `Corrupt`.
impl Savestate for str {
    fn save(&self, w: &mut Writer) {
        w.len_prefix(self.len());
        w.bytes(self.as_bytes());
    }
}

impl Savestate for String {
    fn save(&self, w: &mut Writer) {
        self.as_str().save(w);
    }
    fn load(r: &mut Reader<'_>) -> Result<Self, SavestateError> {
        let n = r.len_prefix()?;
        String::from_utf8(r.take(n)?.to_vec())
            .map_err(|e| SavestateError::Corrupt(format!("bad utf-8 string: {e}")))
    }
}

impl<T: Savestate> Savestate for Vec<T> {
    fn save(&self, w: &mut Writer) {
        w.seq(self);
    }
    fn load(r: &mut Reader<'_>) -> Result<Self, SavestateError> {
        r.seq(T::load)
    }
}

impl<T: Savestate> Savestate for Arc<[T]> {
    fn save(&self, w: &mut Writer) {
        w.seq(self.iter());
    }
    fn load(r: &mut Reader<'_>) -> Result<Self, SavestateError> {
        Vec::load(r).map(Arc::from)
    }
}

impl<T: Savestate> Savestate for Arc<T> {
    fn save(&self, w: &mut Writer) {
        (**self).save(w);
    }
    fn load(r: &mut Reader<'_>) -> Result<Self, SavestateError> {
        T::load(r).map(Arc::new)
    }
}

/// The boxed value's own encoding: boxing a field leaves its bytes as
/// they were.
impl<T: Savestate> Savestate for Box<T> {
    fn save(&self, w: &mut Writer) {
        (**self).save(w);
    }
    fn load(r: &mut Reader<'_>) -> Result<Self, SavestateError> {
        T::load(r).map(Box::new)
    }
}

/// A presence `bool`, then the value when present.
impl<T: Savestate> Savestate for Option<T> {
    fn save(&self, w: &mut Writer) {
        self.is_some().save(w);
        if let Some(v) = self {
            v.save(w);
        }
    }
    fn load(r: &mut Reader<'_>) -> Result<Self, SavestateError> {
        Ok(if bool::load(r)? { Some(T::load(r)?) } else { None })
    }
}

/// Tag `0` then the `Ok` value, or tag `1` then the `Err` value.
impl<T: Savestate, E: Savestate> Savestate for Result<T, E> {
    fn save(&self, w: &mut Writer) {
        match self {
            Ok(v) => {
                0u8.save(w);
                v.save(w);
            }
            Err(e) => {
                1u8.save(w);
                e.save(w);
            }
        }
    }
    fn load(r: &mut Reader<'_>) -> Result<Self, SavestateError> {
        match u8::load(r)? {
            0 => Ok(Ok(T::load(r)?)),
            1 => Ok(Err(E::load(r)?)),
            t => Err(SavestateError::Corrupt(format!("bad Result tag {t}"))),
        }
    }
}

/// The `N` elements back to back; the length is the type's.
impl<T: Savestate, const N: usize> Savestate for [T; N] {
    fn save(&self, w: &mut Writer) {
        for v in self {
            v.save(w);
        }
    }
    fn load(r: &mut Reader<'_>) -> Result<Self, SavestateError> {
        let v = (0..N).map(|_| T::load(r)).collect::<Result<Vec<T>, _>>()?;
        Ok(v.try_into().unwrap_or_else(|_| unreachable!("exactly N elements were decoded")))
    }
}

impl<A: Savestate, B: Savestate> Savestate for (A, B) {
    fn save(&self, w: &mut Writer) {
        self.0.save(w);
        self.1.save(w);
    }
    fn load(r: &mut Reader<'_>) -> Result<Self, SavestateError> {
        Ok((A::load(r)?, B::load(r)?))
    }
}

/// Implement [`Savestate`] for a struct from its field list: the blob
/// holds each listed field's own encoding, in list order. Every field
/// must be listed (the generated struct literal names them all), and
/// the list order *is* the blob layout — reordering it is a format
/// change.
///
/// ```
/// use ctb_savestate::{savestate_struct, Reader, Savestate, Writer};
///
/// #[derive(Debug, PartialEq)]
/// struct Policy {
///     threshold: usize,
///     enabled: bool,
/// }
/// savestate_struct!(Policy { threshold, enabled });
///
/// let mut w = Writer::new();
/// Policy { threshold: 3, enabled: true }.save(&mut w);
/// let bytes = w.into_bytes();
/// assert_eq!(bytes.len(), 8 + 1);
/// let back = Policy::load(&mut Reader::new(&bytes)).unwrap();
/// assert_eq!(back, Policy { threshold: 3, enabled: true });
/// ```
#[macro_export]
macro_rules! savestate_struct {
    ($ty:ident { $($field:ident),* $(,)? }) => {
        impl $crate::Savestate for $ty {
            fn save(&self, w: &mut $crate::Writer) {
                $( $crate::Savestate::save(&self.$field, w); )*
            }
            fn load(
                r: &mut $crate::Reader<'_>,
            ) -> ::std::result::Result<Self, $crate::SavestateError> {
                ::std::result::Result::Ok(Self { $( $field: $crate::Savestate::load(r)?, )* })
            }
        }
    };
}

/// Implement [`Savestate`] for an enum: one explicit `u8` tag per
/// variant, then the variant's fields in list order. Struct variants
/// list their field names, tuple variants name a binding per element,
/// unit variants list nothing. Tags are part of the format: give a new
/// variant a new tag, never renumber. An unknown tag decodes to a
/// `Corrupt` error that names the type.
///
/// ```
/// use ctb_savestate::{savestate_enum, Reader, Savestate, SavestateError, Writer};
///
/// #[derive(Debug, PartialEq)]
/// enum Op {
///     Stop,
///     Move { to: u64 },
///     Pair(u32, bool),
/// }
/// savestate_enum!(Op { 0 => Stop, 1 => Move { to }, 7 => Pair(a, b) });
///
/// let mut w = Writer::new();
/// Op::Pair(5, true).save(&mut w);
/// let bytes = w.into_bytes();
/// assert_eq!(bytes[0], 7);
/// assert_eq!(Op::load(&mut Reader::new(&bytes)).unwrap(), Op::Pair(5, true));
/// let err = Op::load(&mut Reader::new(&[2])).unwrap_err();
/// assert_eq!(err, SavestateError::Corrupt("bad Op tag 2".into()));
/// ```
#[macro_export]
macro_rules! savestate_enum {
    ($ty:ident {
        $( $tag:literal => $variant:ident
            $( { $($field:ident),* $(,)? } )?
            $( ( $($elem:ident),* $(,)? ) )?
        ),* $(,)?
    }) => {
        impl $crate::Savestate for $ty {
            fn save(&self, w: &mut $crate::Writer) {
                match self {
                    $( $ty::$variant $( { $($field),* } )? $( ( $($elem),* ) )? => {
                        $crate::Savestate::save(&($tag as u8), w);
                        $( $( $crate::Savestate::save($field, w); )* )?
                        $( $( $crate::Savestate::save($elem, w); )* )?
                    } )*
                }
            }
            fn load(
                r: &mut $crate::Reader<'_>,
            ) -> ::std::result::Result<Self, $crate::SavestateError> {
                ::std::result::Result::Ok(match <u8 as $crate::Savestate>::load(r)? {
                    $( $tag => $ty::$variant
                        $( { $( $field: $crate::Savestate::load(r)? ),* } )?
                        $( ( $( { let $elem = $crate::Savestate::load(r)?; $elem } ),* ) )?,
                    )*
                    t => {
                        return ::std::result::Result::Err($crate::SavestateError::Corrupt(
                            ::std::format!("bad {} tag {t}", ::std::stringify!($ty)),
                        ))
                    }
                })
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip<T: Savestate>(v: &T) -> (T, Vec<u8>) {
        let mut w = Writer::new();
        v.save(&mut w);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        let back = T::load(&mut r).unwrap();
        r.expect_end().unwrap();
        (back, bytes)
    }

    fn corrupt_reason<T: Savestate + fmt::Debug>(bytes: &[u8]) -> String {
        match T::load(&mut Reader::new(bytes)) {
            Err(SavestateError::Corrupt(why)) => why,
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }

    #[test]
    fn primitives_round_trip_bitwise() {
        assert_eq!(
            round_trip(&0xDEAD_BEEFu32),
            (0xDEAD_BEEF, 0xDEAD_BEEFu32.to_le_bytes().to_vec())
        );
        assert_eq!(round_trip(&(7u8, true)).0, (7, true));
        assert_eq!(round_trip(&(u64::MAX - 1)).0, u64::MAX - 1);
        assert_eq!(round_trip(&-0.0f64).0.to_bits(), (-0.0f64).to_bits());
        assert_eq!(round_trip(&"θ=256".to_string()).0, "θ=256");
        for v in [0usize, 1, usize::MAX] {
            assert_eq!(round_trip(&v), (v, (v as u64).to_le_bytes().to_vec()));
        }
    }

    #[test]
    fn nan_payloads_survive_inside_option_and_vec() {
        let nan = f64::from_bits(0x7FF8_0000_0000_1234);
        let (back, bytes) = round_trip(&Some(nan));
        assert_eq!(back.map(f64::to_bits), Some(nan.to_bits()));
        assert_eq!(bytes.len(), 1 + 8);
        let (back, bytes) = round_trip(&vec![Some(nan), None]);
        assert_eq!(back[0].map(f64::to_bits), Some(nan.to_bits()));
        assert_eq!(back[1], None);
        assert_eq!(bytes.len(), 8 + (1 + 8) + 1);
    }

    #[test]
    fn duration_saturates_and_containers_round_trip() {
        assert_eq!(round_trip(&Duration::new(3, 999)).0, Duration::new(3, 999));
        let (back, bytes) = round_trip(&Duration::MAX);
        assert_eq!(bytes, u64::MAX.to_le_bytes());
        assert_eq!(back, Duration::from_nanos(u64::MAX));
        let pairs: Arc<[(u32, String)]> = vec![(1, "a".to_string()), (2, "bc".into())].into();
        assert_eq!(round_trip(&pairs).0, pairs);
        let res: Vec<Result<f64, String>> = vec![Ok(2.5), Err("no plan".into())];
        assert_eq!(round_trip(&res).0, res);
        let (back, bytes) = round_trip(&[7usize, 8, 9]);
        assert_eq!((back, bytes.len()), ([7, 8, 9], 3 * 8), "arrays carry no length prefix");
        assert_eq!(*round_trip(&Arc::new(5u32)).0, 5);
        assert_eq!(round_trip(&Box::new(6u32)), (Box::new(6), round_trip(&6u32).1));
    }

    #[test]
    fn header_version_truncation_and_trailing_bytes_are_typed_errors() {
        assert!(matches!(
            Reader::with_header(b"NOPE\x01\x00\x00\x00"),
            Err(SavestateError::Corrupt(_))
        ));
        assert!(matches!(Reader::with_header(&MAGIC[..3]), Err(SavestateError::Corrupt(_))));
        let mut w = Writer::new();
        w.bytes(&MAGIC);
        (FORMAT_VERSION + 1).save(&mut w);
        assert_eq!(
            Reader::with_header(&w.into_bytes()).unwrap_err(),
            SavestateError::UnsupportedVersion {
                found: FORMAT_VERSION + 1,
                supported: FORMAT_VERSION
            }
        );
        let mut w = Writer::with_header();
        42u64.save(&mut w);
        let bytes = w.into_bytes();
        let (mut r, v) = Reader::with_header(&bytes[..bytes.len() - 1]).unwrap();
        assert_eq!(v, FORMAT_VERSION);
        assert!(corrupt_reason::<u64>(&bytes[8..15]).starts_with("truncated"));
        assert!(matches!(u64::load(&mut r), Err(SavestateError::Corrupt(_))));
        let (r, _) = Reader::with_header(&bytes).unwrap();
        assert!(matches!(r.expect_end(), Err(SavestateError::Corrupt(_))));
        let e = SavestateError::UnsupportedVersion { found: 9, supported: 1 };
        assert!(e.to_string().contains("version 9"));
    }

    #[test]
    fn bad_bool_option_and_result_bytes_are_corrupt() {
        assert_eq!(corrupt_reason::<bool>(&[2]), "bad bool byte 2");
        assert_eq!(corrupt_reason::<Option<u64>>(&[2]), "bad bool byte 2");
        assert_eq!(corrupt_reason::<Result<u64, String>>(&[2]), "bad Result tag 2");
        assert!(corrupt_reason::<String>(&[1, 0, 0, 0, 0, 0, 0, 0, 0xFF]).starts_with("bad utf-8"));
    }

    #[test]
    fn forged_sequence_count_fails_without_allocating() {
        let forged = (u64::MAX / 2).to_le_bytes(); // length prefix, no payload
        assert!(corrupt_reason::<Vec<u64>>(&forged).starts_with("absurd length"));
        assert!(corrupt_reason::<String>(&forged).starts_with("absurd length"));
        assert!(matches!(Reader::new(&forged).seq(u64::load), Err(SavestateError::Corrupt(_))));
    }

    #[derive(Debug, PartialEq)]
    struct Job {
        id: u64,
        shapes: Vec<u32>,
        home: Option<usize>,
    }
    savestate_struct!(Job { id, shapes, home });

    #[derive(Debug, PartialEq)]
    enum Step {
        Idle,
        Run { job: Job, on: usize },
        Tuple(u8, Duration),
    }
    savestate_enum!(Step { 0 => Idle, 4 => Run { job, on }, 9 => Tuple(a, b) });

    #[test]
    fn macros_encode_fields_in_list_order_with_explicit_tags() {
        let steps = vec![
            Step::Idle,
            Step::Run { job: Job { id: 5, shapes: vec![2, 3], home: Some(4) }, on: 6 },
            Step::Tuple(7, Duration::from_micros(8)),
        ];
        let (back, bytes) = round_trip(&steps);
        assert_eq!(back, steps);
        assert_eq!(bytes[8..11], [0, 4, 5], "Idle tag, Run tag, then the job's id");
        assert_eq!(bytes.len(), 8 + 1 + (1 + 8 + (8 + 2 * 4) + (1 + 8) + 8) + (1 + 1 + 8));
    }

    #[test]
    fn unknown_enum_tag_names_the_type() {
        assert_eq!(corrupt_reason::<Step>(&[3]), "bad Step tag 3");
        assert!(corrupt_reason::<Step>(&[4]).starts_with("truncated"));
    }
}
