"""Reference preemption and shadow rule, kept to check the engine against.

These are the engine's earlier forms: ``preempting_alternative`` asks
its nested questions on an explicit stack and rescans the sorted climb
for each, and ``shadowed_below`` tests every attach point against every
link on its climb.  Both are quadratic in isa depth but follow the
definitions in ``abducer.scenario`` line by line.
"""


def preempting_alternative(net, placed, caused, p, x, y):
    """The first candidate against ``x -> y`` at ``p`` that stands."""
    climb = sorted(net.isa_star(p))
    judged = {}
    stack = [(x, y)]
    while True:
        alt = _open_alternative(net, placed, caused, climb, judged, stack[-1])
        if alt is not None and alt not in judged:
            stack.append(alt)
            continue
        link = stack.pop()
        if not stack:
            return alt
        judged[link] = alt


def _open_alternative(net, placed, caused, climb, judged, link):
    """The first candidate against link that stands or is not judged yet."""
    x, y = link
    for u in climb:
        if u == x or x not in net.isa_star(u):
            continue
        for w in (y, x):
            alt = (u, w)
            if alt == link or alt in placed or not net.is_link(u, w):
                continue
            if w != y and w in caused:
                continue
            if judged.get(alt) is None:
                return alt
    return None


def _shadowed_at(net, p, x, y):
    """Some u with ``p isa* u isa+ x`` has a link u -> y that nothing more
    specific on p's climb can preempt."""
    climb = net.isa_star(p)
    for u in climb:
        if u == x or x not in net.isa_star(u) or not net.is_link(u, y):
            continue
        if not any(
            v != u and u in net.isa_star(v) and (net.is_link(v, y) or net.is_link(v, u))
            for v in climb
        ):
            return True
    return False


def shadowed_below(net, root, x):
    """The links x -> y shadowed at root, if x is on its climb, and at
    every other attach point of x that root reaches."""
    if x == root:
        return frozenset()
    climb = net.isa_star(root)
    ys = net.effects_of(x)
    if x in climb:
        ys = [y for y in ys if _shadowed_at(net, root, x, y)]
    if ys:
        for p in _reachable(net, root):
            if p != x and p not in climb and x in net.isa_star(p):
                ys = [y for y in ys if _shadowed_at(net, p, x, y)]
                if not ys:
                    break
    return frozenset((x, y) for y in ys)


def _reachable(net, root):
    """The events root reaches by causal and isa links, walked here so that
    the reference shares no walk with the engine."""
    seen = {root}
    todo = [root]
    while todo:
        v = todo.pop()
        for w in (*net.effects_of(v), *net.parents_of(v)):
            if w not in seen:
                seen.add(w)
                todo.append(w)
    return seen
