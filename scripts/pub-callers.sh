#!/usr/bin/env bash
# Lists the public surface nothing calls, and fails if there is any:
#
#   1. every `pub fn` / `pub const fn` under `crates/*/src` and `src/` whose
#      name no other `.rs` file of `crates src tests examples benchmark`
#      names (a whole-word match, so a doc link or a `use` counts; a `fn`
#      definition of the same name does not). There is no allow list: an
#      uncalled `pub fn` is made private or deleted;
#   2. every `[dependencies]` entry of a `crates/*` package whose crate name
#      appears in none of that package's `.rs` files.
#
# A name-level grep, not a resolver: two unrelated functions one of which
# is called keep each other alive, and that is accepted. Needs no build.
#
#   scripts/pub-callers.sh
set -euo pipefail
cd "$(dirname "$0")/.."

files=$(find crates src tests examples benchmark -name '*.rs' -not -path '*/target/*' | sort)

# "file<TAB>word" once per file and word that file names.
index=$(for f in $files; do
    sed -E 's/\bfn +[A-Za-z_][A-Za-z0-9_]*//g' "$f" |
        grep -ow '[A-Za-z_][A-Za-z0-9_]*' | sort -u | sed "s|^|$f\t|"
done)

# "file:line<TAB>name" per public function definition.
defs=$(grep -nHE '^[[:space:]]*pub (const )?fn [A-Za-z_][A-Za-z0-9_]*' \
    $(find crates/*/src src -name '*.rs' | sort) |
    sed -E 's/^([^:]+):([0-9]+):.*pub (const )?fn ([A-Za-z_][A-Za-z0-9_]*).*/\1:\2\t\4/')

uncalled=$(awk -F '\t' '
    FNR == NR { count[$2]++; file[$2] = $1; next }
    {
        split($1, at, ":")
        if (count[$2] == 0 || (count[$2] == 1 && file[$2] == at[1])) print $1 "\t" $2
    }
    ' <(printf '%s\n' "$index") <(printf '%s\n' "$defs"))

unused=$(for toml in crates/*/Cargo.toml; do
    pkg=$(dirname "$toml")
    awk '/^\[/ { deps = ($0 == "[dependencies]"); next }
         deps && match($0, /^[A-Za-z0-9_-]+/) { print substr($0, 1, RLENGTH) }' "$toml" |
    while read -r dep; do
        grep -rqw --include='*.rs' "${dep//-/_}" "$pkg" || printf '%s\t%s\n' "$toml" "$dep"
    done
done)

status=0
if [ -n "$uncalled" ]; then
    echo "pub-callers: pub fns no other file names (make them private or delete them):"
    sed 's/^/  /' <<<"$uncalled"
    status=1
fi
if [ -n "$unused" ]; then
    echo "pub-callers: [dependencies] entries no source of the package names:"
    sed 's/^/  /' <<<"$unused"
    status=1
fi
[ $status -eq 0 ] && echo "pub-callers: ok"
exit $status
