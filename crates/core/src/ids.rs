//! Identifier newtypes for the virtualization layer.

use std::fmt;

macro_rules! id_type {
    ($(#[$doc:meta])* $name:ident, $prefix:literal) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
        pub struct $name(pub u32);

        impl From<u32> for $name {
            fn from(v: u32) -> Self {
                $name(v)
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }
    };
}

id_type!(
    /// Identifier of a virtual machine / virtual NPU instance.
    VmId,
    "vm"
);
id_type!(
    /// A core ID as seen by the guest (program-level).
    VirtCoreId,
    "v"
);
id_type!(
    /// A core ID in the physical mesh.
    PhysCoreId,
    "p"
);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_prefixes() {
        assert_eq!(VmId(3).to_string(), "vm3");
        assert_eq!(VirtCoreId(1).to_string(), "v1");
        assert_eq!(PhysCoreId(7).to_string(), "p7");
    }

    #[test]
    fn conversions() {
        let v: VirtCoreId = 5u32.into();
        assert_eq!(v, VirtCoreId(5));
    }

    #[test]
    fn distinct_types_do_not_compare() {
        // This is a compile-time property; here we just document ordering.
        assert!(VirtCoreId(1) < VirtCoreId(2));
    }
}
