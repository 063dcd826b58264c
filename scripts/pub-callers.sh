#!/usr/bin/env bash
# Lists the public surface nothing calls, and fails if there is any:
#
#   1. every `pub fn` / `pub const fn` under `crates/*/src` and `src/` whose
#      name no other `.rs` file of `crates src tests examples benchmark`
#      names (a whole-word match, so a doc link or a `use` counts; a `fn`
#      definition of the same name does not), minus the deliberate API in
#      `scripts/pub-callers.allow` — and every allow-list entry that no
#      longer names such a function;
#   2. every `[dependencies]` entry of a `crates/*` package whose crate name
#      appears in none of that package's `.rs` files.
#
# A name-level grep, not a resolver: two unrelated functions one of which
# is called keep each other alive, and that is accepted. Needs no build.
#
#   scripts/pub-callers.sh
set -euo pipefail
cd "$(dirname "$0")/.."

allow=scripts/pub-callers.allow
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

uncalled=$(awk -F '\t' -v allow="$allow" '
    BEGIN {
        while ((getline line < allow) > 0) {
            sub(/#.*/, "", line)
            if (split(line, w, " ") > 0) allowed[w[1]] = 1
        }
    }
    FNR == NR { count[$2]++; file[$2] = $1; next }
    {
        split($1, at, ":")
        if (count[$2] == 0 || (count[$2] == 1 && file[$2] == at[1])) {
            if ($2 in allowed) needed[$2] = 1; else print $1 "\t" $2
        }
    }
    END { for (name in allowed) if (!(name in needed)) print allow "\t" name " (stale entry)" }
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
    echo "pub-callers: pub fns no other file names (make them private, delete them, or allow-list them in $allow):"
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
