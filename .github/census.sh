#!/bin/sh
# The census: which functions of crates/* does no selector link?
# A selector is an experiment (`expt`), an example, an integration test,
# another crate's unit tests or `benchmark/`'s binary. A crate's own
# unit-test binary tests the crate; it is not a client of it.
#
#   .github/census.sh      # from anywhere in the repository
#
# Rust links with --gc-sections, so a non-generic function that nothing
# calls is absent from every binary. The script builds every selector in
# debug, classifies each binary by the target kind cargo reports (not by
# file name: tests/conformance.rs and the conformance crate's unit tests
# are both `conformance-<hash>`), and takes the text symbols of
# `lib<crate>.rlib` under the crate's own path, minus the union of what
# every binary other than the crate's unit tests defines.
#
# Prints `crate defined / unselected` per crate, each unselected symbol
# (`kept` if .github/census-keep.txt names it) and a total. Exits 1 on an
# unselected symbol that is not kept, on a keep entry that no longer
# names an unselected symbol (stale), on a crate with no defined
# symbols, or when no test, example, bin or `benchmark/` binary was
# found: each of those would let the census pass without looking.
#
# Limits:
#   - Generic and #[inline] functions are codegened where they are used,
#     so no rlib lists them. They are covered by the fallback below: each
#     such `pub fn` name is grepped in the selectors' sources outside its
#     own file. It matches names, not paths, and is checked by hand.
#   - Derived `assert_fields_are_eq` symbols are skipped.
#   - #[cfg(debug_assertions)] code is built, so it counts as selected.
set -eu

repo=$(git rev-parse --show-toplevel)
cd "$repo"
keep=.github/census-keep.txt
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT INT TERM

cargo build --workspace --all-targets --message-format=json >"$work/ws.json"
cargo build --offline --locked --manifest-path benchmark/Cargo.toml \
  --target-dir target/census --message-format=json >"$work/bm.json"

# One line per artifact: kind, target name, profile.test, executable
# (or null), first .rlib file (or none).
artifacts() {
  sed -n 's/^{"reason":"compiler-artifact".*"manifest_path":"\([^"]*\)".*"target":{"kind":\["\([a-z-]*\)"[^}]*"name":"\([^"]*\)".*"test":\([a-z]*\)},"features".*"filenames":\[\([^]]*\)\].*"executable":"\{0,1\}\([^",}]*\).*/\2 \3 \4 \6 \5 \1/p' "$1" |
    awk '{ rlib = "none"; n = split($5, f, ",");
           for (i = 1; i <= n; i++) if (f[i] ~ /\.rlib"$/) { rlib = f[i]; gsub(/"/, "", rlib) }
           print $1, $2, $3, $4, rlib, $6 }'
}
artifacts "$work/ws.json" >"$work/ws.txt"
artifacts "$work/bm.json" | awk '$1 == "bin"' >"$work/bm.txt"

for kind in test example bin; do
  awk -v k="$kind" '$1 == k && $4 != "null" { found = 1 } END { exit !found }' "$work/ws.txt" ||
    { echo "census: no $kind binary was built" >&2; exit 1; }
done
[ -s "$work/bm.txt" ] || { echo "census: no benchmark/ binary was built" >&2; exit 1; }

symbols() {
  nm -C --defined-only "$1" 2>/dev/null |
    sed -n 's/^[0-9a-f]* [tTwW] //p' |
    sed -e 's/::h[0-9a-f]\{16\}$//' -e 's/::{{closure}}.*$//' |
    grep -v 'assert_fields_are_eq' || true
}

# "owner<TAB>symbol" for every binary; owner is the crate whose own unit
# tests the binary runs, or "-".
cat "$work/ws.txt" "$work/bm.txt" | while read -r kind name test exe rlib manifest; do
  [ "$exe" = null ] && continue
  owner=-
  [ "$kind" = lib ] && [ "$test" = true ] && owner=$name
  symbols "$exe" | sed "s/^/$owner	/"
done | sort -u >"$work/selected.txt"

# "crate<TAB>symbol" for every text symbol under a crate's own path.
crates=$(awk '$1 == "lib" && $3 == "false" && $6 ~ /\/crates\// { print $2 }' "$work/ws.txt")
for crate in $crates; do
  rlib=$(awk -v c="$crate" '$1 == "lib" && $2 == c && $3 == "false" { print $5 }' "$work/ws.txt")
  symbols "$rlib" | grep -e "^$crate::" -e "^<$crate::" | sed "s/^/$crate	/"
done | sort -u >"$work/defined.txt"

awk -F '\t' '
  FILENAME == ARGV[1] { o = ($2 in owner && owner[$2] != $1) ? "*" : $1; owner[$2] = o; next }
  !($2 in owner) || owner[$2] == $1 { print }
' "$work/selected.txt" "$work/defined.txt" >"$work/unselected.txt"

# The fallback: `pub fn`s that no rlib lists, matched by name in the
# selectors' sources (other files' non-test code, tests, examples and
# benchmark/; comments skipped), each line prefixed with its file.
find crates src -name '*.rs' -exec awk '
  FNR == 1 { cut = 0 } /^[ \t]*#\[cfg\(test\)\]/ { cut = 1 }
  !cut && !/^[ \t]*\/\// { print FILENAME ":" $0 }' {} + >"$work/corpus.txt"
find tests examples benchmark/src -name '*.rs' -exec awk '
  !/^[ \t]*\/\// { print FILENAME ":" $0 }' {} + >>"$work/corpus.txt"
awk '$1 == "lib" && $3 == "false" && $6 ~ /\/crates\// { print $2, $6 }' "$work/ws.txt" |
  while read -r crate manifest; do
    dir=${manifest#"$repo"/}
    dir=${dir%/Cargo.toml}/src
    find "$dir" -name '*.rs' ! -path '*/bin/*' | sort | while read -r file; do
      mod=${file#"$dir"/}
      mod=$(echo "${mod%.rs}" | sed -e 's,/mod$,,' -e 's,^lib$,,' -e 's,/,::,g')
      path=$crate${mod:+::$mod}
      awk '/^[ \t]*#\[cfg\(test\)\]/ { exit }
           match($0, /^[ \t]*pub fn [A-Za-z_0-9]+/) { s = substr($0, RSTART, RLENGTH); sub(/.* /, "", s); print s }' "$file" |
        sort -u | while read -r fn; do
          grep -q -e "^$crate	$path::$fn\$" -e "^$crate	$path::.*::$fn\$" \
            -e "^$crate	<$path::.*>::$fn\$" "$work/defined.txt" && continue
          grep -E "(^|[^A-Za-z0-9_])$fn(::<.*>)?\(|::$fn\b" "$work/corpus.txt" |
            grep -v -e "^$file:" -e "fn $fn\b" | grep -q . ||
            printf '%s\t%s::%s (fallback)\n' "$crate" "$path" "$fn"
        done
    done
  done >>"$work/unselected.txt"

sed -n 's/^\([^#]*[^ #]\)  *# .*/\1/p' "$keep" | sort -u >"$work/keep.txt"
status=0
echo "crate defined / unselected"
for crate in $crates; do
  d=$(awk -F '\t' -v c="$crate" '$1 == c' "$work/defined.txt" | wc -l)
  u=$(awk -F '\t' -v c="$crate" '$1 == c' "$work/unselected.txt" | wc -l)
  echo "$crate $d / $u"
  [ "$d" -gt 0 ] || { echo "census: $crate defines no symbol" >&2; status=1; }
done
cut -f 2 "$work/unselected.txt" | sort | while read -r sym; do
  if grep -qxF -e "$sym" "$work/keep.txt"; then echo "  kept $sym"; else echo "  UNSELECTED $sym"; fi
done
echo "total $(wc -l <"$work/unselected.txt") unselected, $(wc -l <"$work/keep.txt") kept"

cut -f 2 "$work/unselected.txt" | sort -u >"$work/listed.txt"
if comm -23 "$work/listed.txt" "$work/keep.txt" | grep .; then
  echo "census: the symbols above are selected by nothing and not kept" >&2
  status=1
fi
if comm -13 "$work/listed.txt" "$work/keep.txt" | grep .; then
  echo "census: the keep entries above are stale (selected now, or gone)" >&2
  status=1
fi
exit $status
