//! [`schema!`](crate::schema): one declaration per telemetry name.

/// Declare a telemetry name table: a module holding one index constant
/// per row, numbered from 0 in row order, plus `NAMES` (the exported
/// names, index-aligned) and `name(code)`.
///
/// ```
/// cc_telemetry::schema! {
///     /// Request counters.
///     pub mod reqs: usize {
///         /// PUT requests served.
///         PUT = "req_put",
///         /// GET requests served.
///         GET = "req_get",
///     }
/// }
/// assert_eq!((reqs::PUT, reqs::GET), (0, 1));
/// assert_eq!(reqs::NAMES, &["req_put", "req_get"]);
/// assert_eq!(reqs::name(7), "?");
/// ```
///
/// A counter table may also generate the statistics struct that mirrors
/// it. Each row then names a `u64` field instead of a string (the field
/// name is the exported name); the struct gets that field, with the
/// row's doc, ahead of any fields written out after it, and a private
/// `from_counters(&Telemetry)` that fills every counter field from the
/// counter sums and leaves the rest at their defaults (so the struct
/// must derive `Default`):
///
/// ```
/// cc_telemetry::schema! {
///     /// Cache counters.
///     mod cstat: usize {
///         /// Lookups that hit.
///         HITS => hits,
///         /// Lookups that missed.
///         MISSES => misses,
///     }
///     /// A cache statistics snapshot.
///     #[derive(Debug, Default)]
///     pub struct CacheStats {
///         /// Entries currently held (a gauge, not a counter).
///         pub entries: u64,
///     }
/// }
/// use cc_telemetry::{Telemetry, TelemetrySpec};
/// let tel = Telemetry::new(
///     TelemetrySpec { counters: cstat::NAMES, ops: &[], events: &[] },
///     1,
/// );
/// tel.count(0, cstat::MISSES, 2);
/// let s = CacheStats { entries: 5, ..CacheStats::from_counters(&tel) };
/// assert_eq!((s.hits, s.misses, s.entries), (0, 2, 5));
/// assert_eq!(cstat::NAMES, &["hits", "misses"]);
/// ```
#[macro_export]
macro_rules! schema {
    (
        $(#[$mattr:meta])*
        $mvis:vis mod $module:ident : $ty:ty {
            $( $(#[$rattr:meta])* $konst:ident => $field:ident ),* $(,)?
        }
        $(#[$sattr:meta])*
        $svis:vis struct $stats:ident {
            $( $(#[$fattr:meta])* $fvis:vis $extra:ident : $fty:ty ),* $(,)?
        }
    ) => {
        $crate::schema! {
            $(#[$mattr])*
            $mvis mod $module : $ty {
                $( $(#[$rattr])* $konst = stringify!($field) ),*
            }
        }

        $(#[$sattr])*
        $svis struct $stats {
            $( $(#[$rattr])* pub $field: u64, )*
            $( $(#[$fattr])* $fvis $extra: $fty, )*
        }

        impl $stats {
            /// Every counter field summed across stripes from `tel`,
            /// which must be built from this table's names; all other
            /// fields at their defaults.
            fn from_counters(tel: &$crate::Telemetry) -> Self {
                $stats {
                    $( $field: tel.counter_sum($module::$konst), )*
                    ..::core::default::Default::default()
                }
            }
        }
    };
    (
        $(#[$mattr:meta])*
        $mvis:vis mod $module:ident : $ty:ty {
            $( $(#[$rattr:meta])* $konst:ident = $name:expr ),* $(,)?
        }
    ) => {
        $(#[$mattr])*
        $mvis mod $module {
            #[allow(non_camel_case_types, clippy::upper_case_acronyms)]
            #[repr(usize)]
            enum Row {
                $( $konst, )*
            }

            $( $(#[$rattr])* pub const $konst: $ty = Row::$konst as $ty; )*

            /// Exported names, index-aligned with the constants above.
            pub const NAMES: &[&str] = &[$( $name ),*];

            /// The exported name of `code` (`"?"` if out of range).
            #[allow(dead_code)]
            pub fn name(code: $ty) -> &'static str {
                NAMES.get(code as usize).copied().unwrap_or("?")
            }
        }
    };
}
