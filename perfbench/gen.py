"""Seeded inputs for the benchmark, built without the package under test.

A graph self-map is held as its edge images, ``{edge: tuple of tokens}``,
where a token is an edge label, with a trailing apostrophe for the
reversed edge.  The generated maps live on roses, whose petals are the
letters a-h; every fixed document but the dumbbell is a rose too, and the
dumbbell's vertex map is the identity.  Everything here (composition, primitivity, gates,
rotationless exponents, dilatations) is computed independently of
``loneaxis`` so that the generated documents and the expectations the
validators use do not rest on the code being measured.
"""

from __future__ import annotations

import math
import random
from functools import reduce
from operator import or_

LETTERS = "abcdefgh"


def inv(tok):
    return tok[:-1] if tok.endswith("'") else tok + "'"


def inv_word(word):
    return tuple(inv(t) for t in reversed(word))


def image(images, tok):
    return inv_word(images[tok[:-1]]) if tok.endswith("'") else images[tok]


def apply_word(images, word):
    """Freely reduced image of a word."""
    out = []
    for tok in word:
        for x in image(images, tok):
            if out and out[-1] == inv(x):
                out.pop()
            else:
                out.append(x)
    return tuple(out)


def compose(f, g):
    """f . g (apply g first)."""
    return {x: apply_word(f, w) for x, w in g.items()}


def power(images, k):
    out = images
    for _ in range(k - 1):
        out = compose(images, out)
    return out


def total_length(images):
    return sum(len(w) for w in images.values())


def transition_support(images):
    """Arcs e -> f when the image of e crosses f."""
    return {e: {t.rstrip("'") for t in w} for e, w in images.items()}


def is_primitive(images):
    """Some power of the transition matrix is positive (Wielandt bound)."""
    letters = sorted(images)
    n = len(letters)
    bit = {x: 1 << i for i, x in enumerate(letters)}
    step = [reduce(lambda a, f: a | bit[f], fs, 0)
            for _, fs in sorted(transition_support(images).items())]
    full = (1 << n) - 1
    reach = list(step)
    for _ in range((n - 1) ** 2 + 1):
        if all(r == full for r in reach):
            return True
        reach = [reduce(or_, (step[i] for i in range(n) if r >> i & 1), 0)
                 for r in reach]
    return False


def eigenpair(images):
    """Perron-Frobenius root of the transition matrix and the edge lengths
    (summing to 1) that the map stretches by it."""
    import numpy as np
    letters = sorted(images)
    index = {x: i for i, x in enumerate(letters)}
    counts = np.zeros((len(letters), len(letters)))
    for e, w in images.items():
        for t in w:
            counts[index[e], index[t.rstrip("'")]] += 1
    values, vectors = np.linalg.eig(counts)
    top = int(np.argmax(values.real))
    x = np.abs(vectors[:, top].real)
    return float(values[top].real), dict(zip(letters, (x / x.sum()).tolist()))


def dilatation(images):
    return eigenpair(images)[0]


def proven_leg_bound(images):
    """Edge-count bound on a leg of an indivisible Nielsen path: a leg of
    eigenlength L satisfies L <= lam * max_len / (lam - 1), and dividing by
    the shortest edge turns length into a count of edges."""
    lam, x = eigenpair(images)
    longest, shortest = max(x.values()), min(x.values())
    return int(lam * longest / (lam - 1) / shortest + 1e-9)


def directions(images):
    return sorted(images) + [x + "'" for x in sorted(images)]


def direction_map(images):
    return {d: image(images, d)[0] for d in directions(images)}


def gate_count(images):
    """Number of gates at the rose vertex: classes of eventually
    identified directions."""
    dmap = direction_map(images)
    dirs = directions(images)
    orbit = {d: d for d in dirs}
    for _ in range(len(dirs)):
        orbit = {d: dmap[x] for d, x in orbit.items()}
    return len(set(orbit.values()))


def rotationless_exponent(images):
    """lcm of the periods of the periodic directions (the vertex is fixed)."""
    dmap = direction_map(images)
    exponent = 1
    for d in directions(images):
        x, period = dmap[d], 1
        while x != d and period <= len(dmap):
            x, period = dmap[x], period + 1
        if x == d:
            exponent = math.lcm(exponent, period)
    return exponent


def random_positive(rank, target, rng):
    """Product of positive elementary automorphisms x -> xy or x -> yx,
    each applied after the product so far, grown until the total image
    length would pass ``target``."""
    letters = LETTERS[:rank]
    words = {x: x for x in letters}  # positive words, one character a letter
    while True:
        x, y = rng.sample(letters, 2)
        sub = x + y if rng.random() < 0.5 else y + x
        grown = {z: w.replace(x, sub) for z, w in words.items()}
        if sum(map(len, grown.values())) > target:
            return {z: tuple(w) for z, w in words.items()}
        words = grown


def relabel(images, rng, invert=True):
    """Conjugate by a seeded petal permutation and, unless ``invert`` is
    false (which keeps a positive map positive), petal inversions."""
    old = sorted(images)
    new = rng.sample(LETTERS[:len(old)], len(old))
    flip = {x for x in new if invert and rng.random() < 0.5}

    def tok(t):
        base = new[old.index(t.rstrip("'"))]
        out = base if not t.endswith("'") else base + "'"
        return inv(out) if base in flip else out

    out = {}
    for x, w in images.items():
        word = tuple(tok(t) for t in w)
        nx = new[old.index(x)]
        out[nx] = inv_word(word) if nx in flip else word
    return out


def corpus_map(rng, rank, target):
    """A primitive expanding positive map of the rank, drawn until one fits."""
    while True:
        images = random_positive(rank, target, rng)
        if total_length(images) > rank and is_primitive(images):
            return images


def document(name, images):
    """The line-oriented document the library and the CLI parse."""
    lines = [f"name {name}", "graph", "vertex v0"]
    lines += [f"edge {x} v0 v0" for x in sorted(images)]
    lines.append("map")
    lines += [f"{x} -> {' '.join(w)}" for x, w in sorted(images.items())]
    return "\n".join(lines) + "\n"


def _lines(text):
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            yield line


def read_images(text):
    """Edge images of a document."""
    images = {}
    for line in _lines(text):
        if "->" in line:
            head, _, word = line.partition("->")
            images[head.strip()] = tuple(word.split())
    return images


def vertices(text):
    return [line.split()[1] for line in _lines(text) if line.startswith("vertex ")]


def power_document(text, k):
    """The document of the k-th power of a document's map (the vertex map
    of every fixed document is the identity, so the graph section stays)."""
    images = power(read_images(text), k)
    out = []
    for line in _lines(text):
        if line.startswith("name "):
            line = f"{line}_pow{k}"
        if "->" in line:
            head = line.partition("->")[0].strip()
            line = f"{head} -> {' '.join(images[head])}"
        out.append(line)
    return "\n".join(out) + "\n"


def seeded(seed, tag):
    """Independent stream per workload part, stable across Python runs."""
    return random.Random(f"{seed}:{tag}")
