#!/bin/sh
# Non-test lines under crates/*/src, per crate: each file counted up to
# its first `#[cfg(test)]`. ROADMAP.md tracks the total.
total=0
for crate in crates/*/; do
  n=$(find "${crate}src" -name '*.rs' -exec awk '
    FNR == 1 { cut = 0 } /^[ \t]*#\[cfg\(test\)\]/ { cut = 1 } !cut { n++ }
    END { print n + 0 }' {} +)
  echo "$crate $n"
  total=$((total + n))
done
echo "total $total"
