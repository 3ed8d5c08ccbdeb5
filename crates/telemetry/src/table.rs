//! [`metric_table!`](crate::metric_table): the one way a metric set is declared.

/// Declares metric series **once**, one row per series:
/// `field: Kind "name" {"label" = "value"}, "help";` (`Kind` is `Counter`,
/// `Gauge` or `Histogram`; only counters take the optional label block).
///
/// It generates the handle struct (an `Arc<Kind>` per row, documented by
/// its help) and the registration of every row, in table order:
/// `struct Name;` gives `Name::register(&registry)`, into a shared
/// registry; `struct Name in "scope";` (optionally `{ field: Type, }`, extra
/// fields built by `Default`) owns a fresh registry: `Name::new()`,
/// `Name::registry()`, `Default`. After `struct Name;` a second struct line
/// adds a value struct, one field per row: on an all-`Counter` table the
/// `u64` snapshot `Name::snapshot(extra..)` reads (fields inside its braces
/// are passed through), on an all-`Gauge` table the `i64` values
/// `Name::set(&values)` writes. The crate docs show a table in use.
#[macro_export]
macro_rules! metric_table {
    (@register $registry:expr, Counter, $name:literal, $help:literal, [$($label:tt),*]) => {
        $registry.labeled_counter($name, $help, &[$($label),*])
    };
    (@register $registry:expr, Gauge, $name:literal, $help:literal, []) => {
        $registry.gauge($name, $help)
    };
    (@register $registry:expr, Histogram, $name:literal, $help:literal, []) => {
        $registry.histogram($name, $help)
    };
    (
        $(#[$hmeta:meta])*
        $hvis:vis struct $Handles:ident;
        $(#[$smeta:meta])*
        $svis:vis struct $Stats:ident { $($(#[$xmeta:meta])* $extra:ident: $Extra:ty,)* }
        $($field:ident: Counter $name:literal $({$($key:literal = $value:literal),*})?, $help:literal;)*
    ) => {
        $crate::metric_table! {
            $(#[$hmeta])*
            $hvis struct $Handles;
            $($field: Counter $name $({$($key = $value),*})?, $help;)*
        }

        $(#[$smeta])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
        $svis struct $Stats {
            $(#[doc = $help] pub $field: u64,)*
            $($(#[$xmeta])* pub $extra: $Extra,)*
        }

        impl $Handles {
            /// Reads every counter: the atomics a scrape reads.
            pub fn snapshot(&self, $($extra: $Extra,)*) -> $Stats {
                $Stats { $($field: self.$field.get(),)* $($extra,)* }
            }
        }
    };
    (
        $(#[$hmeta:meta])*
        $hvis:vis struct $Handles:ident;
        $(#[$smeta:meta])*
        $svis:vis struct $Values:ident {}
        $($field:ident: Gauge $name:literal, $help:literal;)*
    ) => {
        $crate::metric_table! {
            $(#[$hmeta])*
            $hvis struct $Handles;
            $($field: Gauge $name, $help;)*
        }

        $(#[$smeta])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
        $svis struct $Values {
            $(#[doc = $help] pub $field: i64,)*
        }

        impl $Handles {
            /// Sets every gauge to its value in `values`.
            pub fn set(&self, values: &$Values) {
                $(self.$field.set(values.$field);)*
            }
        }
    };
    (
        $(#[$meta:meta])*
        $vis:vis struct $Handles:ident;
        $($field:ident: $kind:ident $name:literal $({$($key:literal = $value:literal),*})?, $help:literal;)*
    ) => {
        $(#[$meta])*
        #[derive(Debug, Clone)]
        $vis struct $Handles {
            $(#[doc = $help] pub(crate) $field: ::std::sync::Arc<$crate::$kind>,)*
        }

        impl $Handles {
            /// Registers every row in `registry`, in table order.
            pub fn register(registry: &$crate::Registry) -> Self {
                Self {
                    $($field: $crate::metric_table!(
                        @register registry, $kind, $name, $help, [$($(($key, $value)),*)?]
                    ),)*
                }
            }
        }
    };
    (
        $(#[$meta:meta])*
        $vis:vis struct $Handles:ident in $scope:literal
            $({ $($(#[$xmeta:meta])* $extra:ident: $Extra:ty,)* })?;
        $($field:ident: $kind:ident $name:literal $({$($key:literal = $value:literal),*})?, $help:literal;)*
    ) => {
        $(#[$meta])*
        #[derive(Debug, Clone)]
        $vis struct $Handles {
            registry: ::std::sync::Arc<$crate::Registry>,
            $(#[doc = $help] pub(crate) $field: ::std::sync::Arc<$crate::$kind>,)*
            $($($(#[$xmeta])* pub(crate) $extra: $Extra,)*)?
        }

        impl $Handles {
            #[doc = concat!("Registers every row, in table order, in a fresh registry scoped `", $scope, "`.")]
            pub fn new() -> Self {
                let registry = ::std::sync::Arc::new($crate::Registry::new($scope));
                Self {
                    $($field: $crate::metric_table!(
                        @register registry, $kind, $name, $help, [$($(($key, $value)),*)?]
                    ),)*
                    $($($extra: ::std::default::Default::default(),)*)?
                    registry,
                }
            }

            /// The registry holding the table's series (for exposition).
            pub fn registry(&self) -> &::std::sync::Arc<$crate::Registry> {
                &self.registry
            }
        }

        impl ::std::default::Default for $Handles {
            fn default() -> Self {
                Self::new()
            }
        }
    };
}
