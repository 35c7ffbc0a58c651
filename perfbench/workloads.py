"""Seeded inputs, output checks and traffic mixes of the four workloads.

Every input is made here from the run's seed; the program sees only the
generated bytes. Each check is computed apart from the program: from the
way the input was made (the planted plate, the rendered text, the echoed
payload), from the benchmark's own LCG, or from a property the method must
have (argmax, symmetric covariance, constant regions stay constant).
"""

import random
import struct

# One entry of the request catalog the load generator replays.
class Template:
    def __init__(self, module, body, expected=None, app=None, check=None):
        self.module = module        # served at POST /<module>
        self.body = body            # request bytes
        self.expected = expected    # exact response body (None until known)
        self.app = app              # edge app whose native twin answers it
        self.check = check          # (body, out) -> error text or None


APPS = ["ekf", "gocr", "cifar10", "resize", "lpd"]
CHAINS = ["chain", "chain_nested", "chain3"]
# sb_invoke children each chain head implies (for the invokes reconciliation)
# and the module of every sandbox it runs, the head included.
CHAIN_INVOKES = {"chain": 1, "chain_nested": 2, "chain3": 2}
CHAIN_STAGES = {
    "chain": ["chain", "echo"],
    "chain_nested": ["chain_nested", "chain", "echo"],
    "chain3": ["chain3", "relay", "echo"],
}
# The access log has one line per HTTP response, under the module of the
# sandbox that wrote it: a streamed chain is answered by its echo stage.
LOG_MODULE = {"chain3": "echo"}

VARIANTS = 8          # seeded inputs per app / chain kind / spin
LCG_A, LCG_C, LCG_M = 1103515245, 12345, 1 << 31

# ---- ping ------------------------------------------------------------------

def ping_template():
    return Template("ping", b"", b"p")


# ---- spin (preempt_mix) -------------------------------------------------------

def lcg_jump(seed, n):
    """s_n of s -> (A*s + C) mod 2^31 after n steps, by squaring the map."""
    a, c = 1, 0                  # accumulated map s -> a*s + c
    ma, mc = LCG_A, LCG_C        # map for the current bit of n
    while n:
        if n & 1:
            a, c = (ma * a) % LCG_M, (ma * c + mc) % LCG_M
        ma, mc = (ma * ma) % LCG_M, (ma * mc + mc) % LCG_M
        n >>= 1
    return (a * seed + c) % LCG_M


def spin_template(rng, iters_lo, iters_hi):
    seed = rng.randrange(1, LCG_M)
    n = rng.randrange(iters_lo, iters_hi)
    return Template("spin", struct.pack("<ii", seed, n),
                    struct.pack("<i", lcg_jump(seed, n)))


# ---- chains -------------------------------------------------------------------

def chain_template(rng, head):
    payload = rng.randbytes(rng.randrange(0, 4097))
    return Template(head, payload, payload)  # every chain ends in echo


# ---- edge apps ----------------------------------------------------------------

def ekf_input(rng):
    x = [rng.uniform(-50, 50) if i % 2 == 0 else rng.uniform(-3, 3)
         for i in range(8)]
    # P = B B^T / 8 + I/2: symmetric positive definite.
    b = [[rng.uniform(-1, 1) for _ in range(8)] for _ in range(8)]
    p = [[sum(b[i][k] * b[j][k] for k in range(8)) / 8 + (0.5 if i == j else 0)
          for j in range(8)] for i in range(8)]
    z = [x[0] + rng.gauss(0, 0.2), x[2] + rng.gauss(0, 0.2),
         x[4] + rng.gauss(0, 0.2), x[6] + rng.gauss(0, 0.2)]
    return struct.pack("<76d", *x, *[v for row in p for v in row], *z)


def check_ekf(body, out):
    if len(out) != 72 * 8:
        return "ekf: response is %d bytes, want 576" % len(out)
    vals = struct.unpack("<72d", out)
    p = [vals[8 + i * 8: 16 + i * 8] for i in range(8)]
    for i in range(8):
        if not p[i][i] > 0:
            return "ekf: covariance diagonal %d is %r" % (i, p[i][i])
        for j in range(i):
            tol = 1e-9 * max(1.0, abs(p[i][j]), abs(p[j][i]))
            if abs(p[i][j] - p[j][i]) > tol:
                return "ekf: covariance not symmetric at (%d,%d)" % (i, j)
    return None


GOCR_CODES = [65 + i for i in range(26)] + [48 + i for i in range(10)] + [32]


def gocr_glyph(code):
    """The page format's glyph model (mirrors gocr.mc's template maker)."""
    if code == 32:
        return [0] * 64
    s = (code * 2654435761) & 0xFFFFFFFF
    if s >= 1 << 31:
        s -= 1 << 32
    s = abs(s)
    glyph = []
    for _ in range(64):
        s = (s * LCG_A + LCG_C) & 0x7FFFFFFF
        glyph.append((s >> 16) & 1)
    return [1] * 8 + glyph[8:]


GLYPHS = {code: gocr_glyph(code) for code in GOCR_CODES}
# At most two noise pixels per cell cannot change the best match as long as
# every pair of glyphs differs in at least five pixels.
assert min(sum(a != b for a, b in zip(GLYPHS[p], GLYPHS[q]))
           for p in GOCR_CODES for q in GOCR_CODES if p < q) >= 5


def gocr_input(rng):
    text = [rng.choice(GOCR_CODES) for _ in range(128)]
    page = bytearray(8192)
    for cell, code in enumerate(text):
        row, col = divmod(cell, 16)
        pix = list(GLYPHS[code])
        for i in rng.sample(range(64), rng.randrange(0, 3)):
            pix[i] ^= 1
        for y in range(8):
            for x in range(8):
                page[(row * 8 + y) * 128 + col * 8 + x] = pix[y * 8 + x]
    want = b"".join(bytes(text[r * 16:(r + 1) * 16]) + b"\n" for r in range(8))
    return bytes(page), want


def check_gocr(body, out, want):
    if out != want:
        return "gocr: read %r, rendered %r" % (out[:32], want[:32])
    return None


def cifar_input(rng):
    base = [rng.randrange(256) for _ in range(3)]
    img = bytearray(3072)
    for i in range(1024):
        for c in range(3):
            img[i * 3 + c] = (base[c] + rng.randrange(-40, 41)) % 256
    return bytes(img)


def check_cifar(body, out):
    if len(out) != 41:
        return "cifar10: response is %d bytes, want 41" % len(out)
    cls = out[0]
    scores = struct.unpack("<10i", out[1:])
    if cls >= 10 or scores[cls] != max(scores):
        return "cifar10: class %d is not the argmax of %r" % (cls, scores)
    return None


RESIZE_W, RESIZE_H, BLOCK = 256, 192, 32


def resize_input(rng):
    """8x6 blocks of 32x32: most flat with a seeded level, some textured."""
    levels, img = {}, bytearray(RESIZE_W * RESIZE_H)
    for by in range(RESIZE_H // BLOCK):
        for bx in range(RESIZE_W // BLOCK):
            flat = rng.random() < 0.75
            level = rng.randrange(256)
            if flat:
                levels[(bx, by)] = level
            for y in range(by * BLOCK, (by + 1) * BLOCK):
                for x in range(bx * BLOCK, (bx + 1) * BLOCK):
                    img[y * RESIZE_W + x] = (
                        level if flat else
                        max(0, min(255, level + rng.randrange(-24, 25))))
    return bytes(img), levels


def check_resize(body, out, levels):
    ow, oh = RESIZE_W // 2, RESIZE_H // 2
    if len(out) != ow * oh:
        return "resize: response is %d bytes, want %d" % (len(out), ow * oh)
    clamp = lambda v, hi: max(0, min(hi, v))
    for oy in range(oh):
        ys = {clamp(2 * oy + k, RESIZE_H - 1) // BLOCK for k in (-1, 2)}
        for ox in range(ow):
            xs = {clamp(2 * ox + k, RESIZE_W - 1) // BLOCK for k in (-1, 2)}
            if len(xs) == 1 and len(ys) == 1:
                level = levels.get((min(xs), min(ys)))
                if level is not None and out[oy * ow + ox] != level:
                    return "resize: flat block %d became %d at (%d,%d)" % (
                        level, out[oy * ow + ox], ox, oy)
    mean_in = sum(body) / len(body)
    mean_out = sum(out) / len(out)
    if abs(mean_in - mean_out) > 2.0:
        return "resize: mean brightness %.2f -> %.2f" % (mean_in, mean_out)
    return None


LPD_W, LPD_H, PLATE_W, PLATE_H = 320, 240, 100, 30


def lpd_input(rng):
    img = bytearray(96 + (b & 31) for b in rng.randbytes(LPD_W * LPD_H))
    px = rng.randrange(8, LPD_W - PLATE_W - 8)
    py = rng.randrange(8, LPD_H - PLATE_H - 8)
    for y in range(py, py + PLATE_H):
        for x in range(px, px + PLATE_W):
            sx = (x - px) % 12
            dark = 3 <= sx <= 5 and py + 5 < y < py + PLATE_H - 5
            img[y * LPD_W + x] = 20 if dark else 230
    return bytes(img), (px, py)


def check_lpd(body, out, plate):
    if len(out) != 20:
        return "lpd: response is %d bytes, want 20" % len(out)
    bx, by, bw, bh, _ = struct.unpack("<5i", out)
    px, py = plate
    if not (bx < px + PLATE_W and px < bx + bw and
            by < py + PLATE_H and py < by + bh):
        return "lpd: box (%d,%d,%d,%d) misses the plate at (%d,%d)" % (
            bx, by, bw, bh, px, py)
    return None


def edge_templates(rng):
    """Per app VARIANTS seeded inputs, each with the check its output passes."""
    out = []
    for app in APPS:
        for _ in range(VARIANTS):
            if app == "ekf":
                body, check = ekf_input(rng), check_ekf
            elif app == "gocr":
                body, want = gocr_input(rng)
                check = lambda b, o, w=want: check_gocr(b, o, w)
            elif app == "cifar10":
                body, check = cifar_input(rng), check_cifar
            elif app == "resize":
                body, levels = resize_input(rng)
                check = lambda b, o, lv=levels: check_resize(b, o, lv)
            else:
                body, plate = lpd_input(rng)
                check = lambda b, o, p=plate: check_lpd(b, o, p)
            out.append(Template(app, body, app=app, check=check))
    return out


# ---- traffic mixes --------------------------------------------------------------

class Workload:
    """Catalog + how one round of the mix is drawn.

    A run attempts whole rounds only, so every run sends the same
    operations in the same proportions whatever the seed and length.
    """

    def __init__(self, name, seed):
        self.name = name
        self.rng = random.Random("perfbench/%s/%d" % (name, seed))
        rng = self.rng
        if name == "ping":
            self.catalog = [ping_template()]
            self.modules = ["ping"]
        elif name == "edge_apps":
            self.catalog = edge_templates(rng)
            self.modules = list(APPS)
        elif name == "chains":
            self.catalog = [chain_template(rng, head)
                            for head in CHAINS for _ in range(VARIANTS)]
            self.modules = ["echo", "relay"] + CHAINS
        elif name == "preempt_mix":
            self.catalog = [ping_template()] + [
                spin_template(rng, 15_000_000, 25_000_000)
                for _ in range(VARIANTS)]
            self.modules = ["ping", "spin"]
        else:
            raise ValueError("unknown workload " + name)
        self.by_module = {}
        for i, t in enumerate(self.catalog):
            self.by_module.setdefault(t.module, []).append(i)

    def round(self):
        """Template indices of one round of the mix, in seeded order."""
        if self.name == "ping":
            return [0]
        if self.name == "edge_apps":
            heads = list(APPS)
        elif self.name == "chains":
            heads = list(CHAINS)
        else:
            return [0]  # preempt_mix: ping stream; spins go on their own
        self.rng.shuffle(heads)
        return [self.rng.choice(self.by_module[h]) for h in heads]

    def rounds(self, n):
        return [i for _ in range(n) for i in self.round()]

    def spins(self, n):
        return [self.rng.choice(self.by_module["spin"]) for _ in range(n)]

    def arrivals(self, count, rate):
        """Poisson arrival offsets (ns) at `rate` per second."""
        t, out = 0.0, []
        for _ in range(count):
            t += self.rng.expovariate(rate)
            out.append(int(t * 1e9))
        return out
