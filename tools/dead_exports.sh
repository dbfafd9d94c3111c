#!/usr/bin/env bash
# No dead exports: every `val` of a library interface must have a
# qualified reader in some .ml/.mli other than its own module's pair,
# under lib, test, bench, perfbench, examples or bin. A reader is
#   - `M.v`, through any path ending in M (`Pdq_core.Sender.v`);
#   - `X.v` where `module X = ...M`;
#   - `v` inside a local open, `M.( ... )`, `M.[ ... ]` or `M.{ ... }`;
#   - `v` in a file that opens or includes M (`open`, `let open`).
# A name in a comment or a string reads nothing. Inside library L a bare
# `M` is L's own module, elsewhere it must come through `Pdq_l.M`, an
# alias or an opened library. A `val` of a `module type T` is read
# wherever a module of type T has it read: through a functor parameter
# `(E : T)` (also in T's own file) or a module whose interface includes
# T (`M.merge` reads `T.merge` when M's interface includes T).
#
# Prints one line per dead export and exits 1 if there is any, 0
# otherwise. Run from anywhere: tools/dead_exports.sh
set -eo pipefail
cd "$(dirname "$0")/.."
exec python3 - <<'PY'
import os, re, sys

READER_DIRS = ["lib", "test", "bench", "perfbench", "examples", "bin"]
PATH = r"[A-Z][\w']*(?:\s*\.\s*[A-Z][\w']*)*"
QUOTED = re.compile(r"\{([a-z_]*)\|")
CHAR = re.compile(r"'(?:\\(?:[\\'\"ntbr ]|\d{3}|x[0-9a-fA-F]{2}|o[0-7]{3})|[^\\'\n])'")


def strip(src):
    """Blank out comments, strings and char literals, keeping offsets."""
    out, i, n, depth = list(src), 0, len(src), 0

    def blank(a, b):
        for k in range(a, b):
            if out[k] != "\n":
                out[k] = " "

    def skip_string(i):  # i at the opening quote; returns index past it
        j = i + 1
        while j < n and src[j] != '"':
            j += 2 if src[j] == "\\" else 1
        return j + 1

    def skip_quoted(i, m):  # {id| ... |id}
        close = "|" + m.group(1) + "}"
        j = src.find(close, m.end())
        return n if j < 0 else j + len(close)

    start = 0
    while i < n:
        c = src[i]
        if src.startswith("(*", i):
            if depth == 0:
                start = i
            depth += 1
            i += 2
        elif depth and src.startswith("*)", i):
            depth -= 1
            i += 2
            if depth == 0:
                blank(start, i)
        elif c == '"':
            j = skip_string(i)
            if not depth:
                blank(i, j)
            i = j
        elif c == "{" and (m := QUOTED.match(src, i)):
            j = skip_quoted(i, m)
            if not depth:
                blank(i, j)
            i = j
        elif c == "'" and (m := CHAR.match(src, i)) \
                and not (i and (src[i - 1].isalnum() or src[i - 1] in "_'")):
            if not depth:
                blank(i, m.end())
            i = m.end()
        else:
            i += 1
    if depth:
        blank(start, n)
    return "".join(out)


def path_parts(p):
    return [s.strip() for s in p.split(".")]


# ---------------------------------------------------------------- units
# A unit is a module or module type that declares vals: a library
# module, a submodule of its interface, or a `module type`.
class Unit:
    def __init__(self, uid, mli, is_type=False):
        self.uid, self.mli, self.is_type = uid, mli, is_type
        self.vals = {}          # name -> line of the declaration
        self.children = {}      # submodule / module type name -> Unit or path
        self.includes = []      # paths of included module types, resolved later
        self.files = {mli, mli[:-1]}  # the module's own pair


libs = {}       # wrapper name (Pdq_core) -> {module name: Unit}
lib_of_dir = {}  # directory -> wrapper name
for root, _, files in sorted(os.walk("lib")):
    if "dune" in files:
        m = re.search(r"\(name\s+([a-z_0-9]+)\)", open(os.path.join(root, "dune")).read())
        if m:
            lib_of_dir[root] = m.group(1).capitalize()
            libs.setdefault(m.group(1).capitalize(), {})

DECL = re.compile(
    r"\bmodule\s+type\s+([A-Z][\w']*)\s*=\s*sig\b"
    r"|\bmodule\s+([A-Z][\w']*)\s*:\s*sig\b"
    r"|\bmodule\s+([A-Z][\w']*)\s*=\s*(" + PATH + r")"
    r"|\binclude\s+(" + PATH + r")"
    r"|\b(sig|struct|object|begin)\b|\b(end)\b"
    r"|\bval\s+([a-z_][\w']*)")

for d in sorted(lib_of_dir):
    lib = lib_of_dir[d]
    for f in sorted(os.listdir(d)):
        if not f.endswith(".mli"):
            continue
        mli = os.path.join(d, f)
        text = strip(open(mli).read())
        top = Unit(lib + "." + f[:-4].capitalize(), mli)
        libs[lib][f[:-4].capitalize()] = top
        stack = [top]
        for m in DECL.finditer(text):
            cur = stack[-1]
            line = text.count("\n", 0, m.start()) + 1
            if cur is None and not (m.group(6) or m.group(7)):
                continue
            if m.group(1) or m.group(2):
                name = m.group(1) or m.group(2)
                u = Unit(cur.uid + "." + name, mli, is_type=bool(m.group(1)))
                cur.children[name] = u
                stack.append(u)
            elif m.group(3):
                cur.children[m.group(3)] = path_parts(m.group(4))
            elif m.group(5):
                cur.includes.append(path_parts(m.group(5)))
            elif m.group(6):
                stack.append(None)
            elif m.group(7):
                if len(stack) > 1:
                    stack.pop()
            elif m.group(8) and cur is not None:
                cur.vals.setdefault(m.group(8), line)

units = []


def walk(u):
    units.append(u)
    for c in u.children.values():
        if isinstance(c, Unit):
            walk(c)


for mods in libs.values():
    for u in mods.values():
        walk(u)


# ----------------------------------------------------------- resolution
class Scope:
    """What a module path means in one file."""

    def __init__(self, path, text):
        d = os.path.dirname(path)
        self.lib = lib_of_dir.get(d)
        name = os.path.basename(path).split(".")[0].capitalize()
        # Inside a module's own pair its submodules and module types are
        # in scope (`(E : EVENT)` in timed_plan.ml).
        self.own = libs[self.lib].get(name) if self.lib else None
        # Modules of the file's own directory shadow library modules
        # outside the libraries (perfbench has its own Json).
        self.local = set() if self.lib else {
            f.rsplit(".", 1)[0].capitalize() for f in os.listdir(d) if f.endswith(".ml")}
        self.aliases = {}
        for m in re.finditer(r"\bmodule\s+([A-Z][\w']*)\s*=\s*(" + PATH + r")", text):
            target = path_parts(m.group(2))
            # Skip functor applications and re-exports (`module Kind = Kind`).
            if target != [m.group(1)] and not text[m.end():].lstrip().startswith("("):
                self.aliases.setdefault(m.group(1), target)
        for m in re.finditer(r"\(\s*([A-Z][\w']*)\s*:\s*(" + PATH + r")\s*\)", text):
            self.aliases.setdefault(m.group(1), path_parts(m.group(2)))
        self.open_libs = set()
        self.opened = set()
        for m in re.finditer(r"\b(?:open!?|include)\s+(" + PATH + r")", text):
            parts = path_parts(m.group(1))
            if len(parts) == 1 and parts[0] in libs:
                self.open_libs.add(parts[0])
            else:
                self.opened |= set(self.resolve(parts))

    def heads(self, name, depth):
        """The units a path's first component may name."""
        if name in self.aliases and depth < 8:
            return self.resolve(self.aliases[name], depth + 1)
        if name in self.local:
            return []
        if self.own and isinstance(self.own.children.get(name), Unit):
            return [self.own.children[name]]
        if self.lib and name in libs[self.lib]:
            return [libs[self.lib][name]]
        found = [libs[l][name] for l in sorted(self.open_libs) if name in libs[l]]
        if found:
            return found
        # Unresolved: any library module of that name (errs towards read).
        return [mods[name] for mods in libs.values() if name in mods]

    def resolve(self, parts, depth=0):
        if parts[0] in libs and len(parts) > 1:
            cands = [libs[parts[0]][parts[1]]] if parts[1] in libs[parts[0]] else []
            rest = parts[2:]
        else:
            cands, rest = self.heads(parts[0], depth), parts[1:]
        for p in rest:
            nxt = []
            for u in cands:
                c = u.children.get(p)
                if isinstance(c, Unit):
                    nxt.append(c)
                elif c is not None:
                    nxt += Scope.for_unit(u).resolve(c, depth + 1)
            cands = nxt
        return cands

    _unit_scopes = {}

    @staticmethod
    def for_unit(u):
        if u.mli not in Scope._unit_scopes:
            Scope._unit_scopes[u.mli] = Scope(u.mli, strip(open(u.mli).read()))
        return Scope._unit_scopes[u.mli]


# ------------------------------------------------------------------ reads
reads = set()   # (uid, val)
QUAL = re.compile(r"(?<![\w'.])(" + PATH + r")\s*\.\s*([a-z_][\w']*)")
LOCAL_OPEN = re.compile(r"(?<![\w'.])(" + PATH + r")\s*\.\s*([(\[{])")
IDENT = re.compile(r"(?<![\w'.])[a-z_][\w']*")


def read(u, v, path):
    if path not in u.files or u.is_type:
        reads.add((u.uid, v))


def span(text, i):
    """End of the bracket opened at text[i]."""
    depth = 0
    for j in range(i, len(text)):
        if text[j] in "([{":
            depth += 1
        elif text[j] in ")]}":
            depth -= 1
            if depth == 0:
                return j
    return len(text)


for d in READER_DIRS:
    for root, _, files in sorted(os.walk(d)):
        if "_build" in root:
            continue
        for f in sorted(files):
            if not f.endswith((".ml", ".mli")):
                continue
            path = os.path.join(root, f)
            text = strip(open(path).read())
            scope = Scope(path, text)
            for m in QUAL.finditer(text):
                for u in scope.resolve(path_parts(m.group(1))):
                    read(u, m.group(2), path)
            for m in LOCAL_OPEN.finditer(text):
                us = scope.resolve(path_parts(m.group(1)))
                body = text[m.end(2):span(text, m.end(2) - 1)]
                for v in set(IDENT.findall(body)):
                    for u in us:
                        read(u, v, path)
            if scope.opened:
                idents = set(IDENT.findall(text))
                for u in scope.opened:
                    for v in idents & set(u.vals):
                        read(u, v, path)

# A val read through a module counts for the module types it includes.
changed = True
while changed:
    changed = False
    for u in units:
        for inc in u.includes:
            for t in Scope.for_unit(u).resolve(inc):
                for (uid, v) in list(reads):
                    if uid == u.uid and (t.uid, v) not in reads:
                        reads.add((t.uid, v))
                        changed = True

dead = 0
for u in sorted(units, key=lambda u: (u.mli, u.uid)):
    for v, line in sorted(u.vals.items(), key=lambda kv: kv[1]):
        if (u.uid, v) not in reads:
            print(f"dead export: {u.mli}:{line}: {u.uid}.{v}")
            dead = 1
sys.exit(dead)
PY
