# Sourced by heap-top.sh and cpu-roles.sh: copies bench/ into dir, a fresh
# directory under .bench_build/ removed when the script exits, builds there
# with the benchmark's own cache settings, points the copy's replace
# directive at this checkout, and defines hook FILE LINE CALL, which
# inserts the statement CALL after the line LINE of the copy's FILE (under
# bench/) and exits 1 when FILE has no such line. bench/ itself is never
# edited.
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOTELEMETRY=off XDG_CONFIG_HOME="$out/config"
dir=$(mktemp -d "$out/$(basename "$0" .sh).XXXXXX")
trap 'rm -rf "$dir"' EXIT

cp -R "$root/bench" "$dir/bench"
rm -f "$dir/bench/bench"
go -C "$dir/bench" mod edit -replace "repro=$root"

hook() {
	local file="$dir/bench/$1" line=$2 call=$3
	grep -qxF "$line" "$file" || {
		echo "$(basename "$0" .sh): bench/$1 has no line '$line' to insert $call after" >&2
		exit 1
	}
	LINE=$line CALL=$call awk '{ print } $0 == ENVIRON["LINE"] { print "\t" ENVIRON["CALL"] }' "$file" >"$file.new"
	mv "$file.new" "$file"
}
