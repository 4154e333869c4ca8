"""Seeded inputs for the three perfbench workloads, with the values the
program under test must produce, computed natively here.

Every generator takes a seed and returns plain data; the same seed gives
the same programs and the same expectations.
"""

import random

# vm_batch: fixed total work and a fixed number of chains per kernel,
# whatever the seed. The seed draws the kernels' constants and how each
# kernel's work is split between its chains (every chain within 10 % of
# an even share). How many chains run at once changes the VM's speed by
# ~10 %, so the seed does not draw it. A job is short (~10 ms) so that a
# run holds thousands of them; see run.py's VM_WINDOW.
PUMP_ITERS = 1_000      # COMM kernel: reads of the self-recharging cell
SPIN_ITERS = 8_000      # INST kernel: class recursion
ALLOC_ITERS = 500       # channel-allocation kernel (ALLOC_WIDTH per step)
ALLOC_WIDTH = 3
ARITH_ITERS = 1_500     # expression-stack kernel
PUMPS, SPINS, ALLOCS, ARITHS = 4, 2, 2, 2   # chains per kernel


def _split(rng, total, parts):
    """`total` split into `parts` chunks, each within 10 % of total/parts."""
    share = total // parts
    chunks = [share + rng.randint(-share // 10, share // 10) for _ in range(parts - 1)]
    return chunks + [total - sum(chunks)]


def _kernels(rng):
    """Draw every kernel's chains and constants."""
    k = {}
    m = rng.randint(500, 5000)
    k["cell"] = dict(v0=rng.randrange(m), d=rng.randint(1, 97), m=m)
    k["pumps"] = _split(rng, PUMP_ITERS, PUMPS)
    k["spins"] = [dict(n=n, x0=rng.randint(1, 999), a=rng.randint(2, 50),
                       b=rng.randint(1, 100), m=rng.randint(1000, 100_000))
                  for n in _split(rng, SPIN_ITERS, SPINS)]
    k["allocs"] = _split(rng, ALLOC_ITERS, ALLOCS)
    k["ariths"] = [dict(n=n, x=rng.randint(0, 999), y=rng.randint(0, 999),
                        p=rng.randint(3, 61), q=rng.randint(3, 61),
                        s=rng.randint(3, 61))
                   for n in _split(rng, ARITH_ITERS, ARITHS)]
    return k


_DEFS = {
    "comm": (
        "def Cell(self, v) = self?{{ read(r) = (r![v] | "
        "Cell[self, (v + {d}) % {m}]) }} in\n"
        "def Pump(c, n, acc, out) = if n == 0 then out![acc] else "
        "new z (c!read[z] | z?(w) = Pump[c, n - 1, acc + w, out]) in\n"
        "def Collect(k, tot) = if k == 0 then print[\"comm\", tot] else "
        "sums?(s) = Collect[k - 1, tot + s] in\n"),
    "inst": (
        "def Spin(n, acc, a, b, m, out) = if n == 0 then out![acc] else "
        "Spin[n - 1, (acc * a + b) % m, a, b, m, out] in\n"),
    "new": (
        "def Alloc(n, k, out) = if n == 0 then out![k] else "
        "new " + ", ".join("c%d" % i for i in range(ALLOC_WIDTH)) +
        " (Alloc[n - 1, k + 1, out]) in\n"),
    "arith": (
        "def Arith(n, x, y, p, q, s, out) = if n == 0 then out![x + y] else "
        "Arith[n - 1, (x * p + y * q + n) % 1000003, "
        "(y * s + x + 3) % 999983, p, q, s, out] in\n"),
}


def _program(k, kinds):
    """Source text, expected counts and printed lines for `kinds`."""
    src, procs, out = "", [], []
    comm = inst = chan = 0
    if "comm" in kinds:
        c = k["cell"]
        src += _DEFS["comm"].format(**c)
        procs.append("Cell[cell, %d]" % c["v0"])
        procs += ["Pump[cell, %d, 0, sums]" % n for n in k["pumps"]]
        procs.append("Collect[%d, 0]" % len(k["pumps"]))
        reads, pumps = sum(k["pumps"]), len(k["pumps"])
        total = sum((c["v0"] + i * c["d"]) % c["m"] for i in range(reads))
        out.append("comm %d" % total)
        # Per read: the read and the reply meet (2 COMM), Cell and Pump
        # re-instantiate (2 INST), one reply channel. Plus the pumps'
        # results meeting the collector and every chain's first INST.
        comm += 2 * reads + pumps
        inst += 2 * reads + 1 + pumps + 1 + pumps
        chan += reads + 2  # the cell and the free name `sums`
    chains = []
    if "inst" in kinds:
        src += _DEFS["inst"]
        for j, s in enumerate(k["spins"]):
            acc = s["x0"]
            for _ in range(s["n"]):
                acc = (acc * s["a"] + s["b"]) % s["m"]
            chains.append(("spin%d" % j, s["n"], "Spin[%d, %d, %d, %d, %d, o]"
                           % (s["n"], s["x0"], s["a"], s["b"], s["m"]), acc))
    if "new" in kinds:
        src += _DEFS["new"]
        for j, n in enumerate(k["allocs"]):
            chains.append(("alloc%d" % j, n, "Alloc[%d, 0, o]" % n, n))
            chan += n * ALLOC_WIDTH
    if "arith" in kinds:
        src += _DEFS["arith"]
        for j, a in enumerate(k["ariths"]):
            x, y = a["x"], a["y"]
            for n in range(a["n"], 0, -1):
                x, y = ((x * a["p"] + y * a["q"] + n) % 1000003,
                        (y * a["s"] + x + 3) % 999983)
            chains.append(("arith%d" % j, a["n"], "Arith[%d, %d, %d, %d, %d, %d, o]"
                           % (a["n"], a["x"], a["y"], a["p"], a["q"], a["s"]),
                           x + y))
    for tag, n, call, value in chains:
        procs.append("new o (%s | o?(v) = print[\"%s\", v])" % (call, tag))
        out.append("%s %d" % (tag, value))
        comm += 1        # the result meets its printer
        inst += n + 1    # one INST per step plus the first call
        chan += 1        # the result channel
    body = "\n| ".join(procs)
    if "comm" in kinds:
        body = "new cell (\n  " + body + "\n)"
    src += body + "\n"
    return dict(source=src, comm=comm, inst=inst, chan=chan, out=out)


def vm_batch(seed):
    """The vm_batch job (all four kernels) and each kernel alone."""
    k = _kernels(random.Random("vm_batch/%d" % seed))
    return dict(batch=_program(k, {"comm", "inst", "new", "arith"}),
                kernels={kind: _program(k, {kind})
                         for kind in ("comm", "inst", "new")})


def expect_text(p):
    """The expectation file `pbdriver vm` checks every job against."""
    lines = ["comm %d" % p["comm"], "inst %d" % p["inst"],
             "chan %d" % p["chan"]] + ["out " + o for o in p["out"]]
    return "\n".join(lines) + "\n"


RPC_PROGRAM = """\
site echo {
  export new svc in
  def S(self) = self?{ val(x, r) = (r![x + 1] | S[self]) } in S[svc]
}
"""


# Loop lengths of the applets: the seed shuffles them, so every seed
# asks the same total work of the VM.
APPLET_STEPS = (3, 4, 6, 7, 9, 10, 12, 13)


def applets(seed):
    """K applet bodies: acc = x, then n times acc = (acc * c1 + c2) % m."""
    rng = random.Random("applets/%d" % seed)
    steps = list(APPLET_STEPS)
    rng.shuffle(steps)
    return [dict(n=n, c1=rng.randint(2, 97), c2=rng.randint(0, 997),
                 m=rng.randint(1000, 1_000_003))
            for n in steps]


def _applet_object(a):
    return ("p?(x, r) = (def L(i, acc) = if i == 0 then r![acc] else "
            "L[i - 1, (acc * %d + %d) %% %d] in L[%d, x])"
            % (a["c1"], a["c2"], a["m"], a["n"]))


def mobility_programs(seed):
    """Node 0 (code server) and node 1 (gateway) programs."""
    aps = applets(seed)
    code = "site code {\n  " + " ".join(
        "export new get%d in" % k for k in range(len(aps))) + "\n"
    for k, a in enumerate(aps):
        code += ("  def A%d(self) = self?(p) = (%s | A%d[self]) in\n"
                 % (k, _applet_object(a), k))
    code += "  (" + " | ".join("A%d[get%d]" % (k, k)
                               for k in range(len(aps))) + ")\n}\n"
    # Every request imports its applet service (one name-service lookup),
    # asks for the applet (SHIPM), receives the object closure (SHIPO)
    # and runs it against the caller's reply channel.
    methods = ",\n    ".join(
        "a%d(x, r) = (G[self] | import get%d from code in "
        "new p (get%d![p] | p![x, r]))" % (k, k, k) for k in range(len(aps)))
    gw = ("site gw {\n  export new gw in\n  def G(self) = self?{\n    "
          + methods + "\n  } in G[gw]\n}\n")
    return dict(code=code, gw=gw, applets=aps)


def applet_probe(seed):
    """Applet 0 alone, for the closure/link layer measurements."""
    return "new p (%s)\n" % _applet_object(applets(seed)[0])
