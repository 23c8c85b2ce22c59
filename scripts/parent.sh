# Sourced by bench-pairs.sh and sim-gate.sh: sets root to this checkout and
# parent to a checkout of the commit the change is measured against.
#
# PARENT=<dir> names an existing checkout. Otherwise the parent is BASE
# (default: HEAD when the tree has uncommitted changes, else HEAD~1), checked
# out as a git worktree under .bench_build/ and removed when the script
# exits.
root=$(git rev-parse --show-toplevel)
parent=${PARENT:-}
if [ -z "$parent" ]; then
	base=${BASE:-$(git -C "$root" diff --quiet HEAD -- && echo HEAD~1 || echo HEAD)}
	parent="$root/.bench_build/parent"
	mkdir -p "$root/.bench_build"
	git -C "$root" worktree remove --force "$parent" 2>/dev/null || true
	git -C "$root" worktree add --detach "$parent" "$base" >&2
	trap 'git -C "$root" worktree remove --force "$parent"' EXIT
fi
