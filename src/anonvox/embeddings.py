"""Speaker embedding corpora, trial lists, and score files.

On-disk formats:

* text embeddings: one record per line, ``<utt_id> <spk_id> <F|M> <v1> ... <vD>``,
  single-space separated, ``.`` decimal separator, ``#`` comment lines ignored.
* binary embeddings: magic ``XVC1``, little-endian u32 dimension, u32 record
  count, then per record u16-prefixed utt/spk ids, u8 gender (0=F, 1=M) and
  the vector as 64-bit IEEE floats. Round-trips are bit exact.
* trial list: ``<enroll_spk> <test_utt> <target|nontarget>`` per line.
* score file: ``<enroll_spk> <test_utt> <score>`` with six decimal places.
  In both, each (enroll_spk, test_utt) pair appears once and ids hold no
  control character and do not start with ``#``. A score file is read
  against a trial list, which must hold each of its pairs.

In memory a ``TrialList`` codes each id column once against its sorted
vocabulary, and a ``ScoreSet`` is a score column over a ``TrialList``.
Text files are read as UTF-8, and a byte that does not decode raises ``path: ...``.
The embedding loaders only parse; the one ``Corpus`` build checks each row once.

A trial or score file in the layout the savers write is split whole by one
``str.split``, any other line by line. Each column rule then runs once, and
the first malformed line is named; a file with none is rejected at its first
pair that repeats or is absent from the trial list. A score file whose ids
equal its trial list's row by row, as ``save_scores`` writes them, takes that
list uncoded. Any other is joined through the trial list's rows: each line's
pair is looked up among them, and the result is built from the list's own
vocabularies and codes. The savers take each row's ids from the vocabularies.
"""

from __future__ import annotations

import re
import struct
import warnings
from collections import namedtuple
from dataclasses import dataclass, fields
from itertools import chain
from pathlib import Path

import numpy as np

GENDERS = ("F", "M")
LABELS = ("target", "nontarget")

_BINARY_MAGIC = b"XVC1"
_GENDER_BYTE = {"F": b"\x00", "M": b"\x01"}
# the id rule: an id is non-empty, holds no whitespace or control character and
# does not start with "#" (a text line starting with it is a comment); ids read
# from a trial or score file are whitespace-split, so only the rest applies
_ID_FAULT = re.compile(r"[\s\x00-\x1f\x7f-\x9f]")
_ID_RULE = "{} {!r} must be non-empty and contain no whitespace or control character"
_ID_HASH = "{} {!r} must not start with '#'"
# one corpus row as read from the columns; nothing checks it again
Row = namedtuple("Row", "utt_id spk_id gender vector")


def _check_rows(given, columns, matrix, where, error=None) -> None:
    """Raises for the first row with a fault: an id the id rule rejects (its
    utt_id first), else a gender outside ``GENDERS``, else an empty or
    non-finite vector; then ``error``, a loader's fault past the last row, if
    given; then for the first row that repeats an utt_id or, strictly earlier,
    contradicts its speaker's first gender. Each message but ``error``'s is
    prefixed by ``where(row)``. ``given`` holds the utt, spk and gender values
    as given, ``columns`` the string arrays made of them; ids and genders are
    checked as given, since a string array drops trailing NULs."""
    utt, spk, genders = map(_id_strings, given)
    utt_col, spk_col, gender = columns
    bad = ~np.fromiter(map(set(GENDERS).__contains__, genders), bool, len(genders))
    bad |= ~np.isfinite(matrix).all(axis=1) if matrix.shape[1] else True
    first = int(np.argmax(bad)) if bad.any() else len(bad)
    faults = [f for f in (_id_fault(utt, "utt_id"), _id_fault(spk, "spk_id")) if f]
    fault = min(faults, key=lambda f: f[0], default=None)
    if fault is not None and fault[0] <= first:
        raise ValueError(where(fault[0]) + fault[1])
    if first < len(bad):
        got = genders[first]
        fault = (f"gender must be one of {GENDERS}, got {got!r}" if got not in GENDERS else
                 f"embedding {utt[first]!r}: " + ("non-finite coordinate" if matrix.shape[1]
                                                   else "vector must be non-empty and 1-D"))
        raise ValueError(where(first) + fault)
    if error is not None:
        raise error
    # ids that pass the id rule keep every character in a string array
    dup = _first_repeat(utt_col)
    _, first, spk_code = np.unique(spk_col, return_index=True, return_inverse=True)
    conflict = np.flatnonzero(gender != gender[first][spk_code])
    if dup >= 0 and not (conflict.size and conflict[0] < dup):
        raise ValueError(f"{where(dup)}duplicate utt_id {utt[dup]!r}")
    if conflict.size:
        row = conflict[0]
        raise ValueError(f"{where(row)}speaker {spk[row]!r} has conflicting genders")


def _id_fault(ids: list[str], what: str, code=None) -> tuple[int, str] | None:
    """The first row whose id the id rule rejects and the message for it, or None.
    ``ids`` holds one id per row, or with ``code`` is a vocabulary that ``code``
    uses in full. One pass over the joined ids clears most columns: each
    printable character but the space passes the rule. Ids are walked one by
    one only after a hit, or when the column holds a "#"."""
    joined = "".join(ids)
    if "" not in ids and "#" not in joined and (
        (joined.isprintable() and " " not in joined) or not _ID_FAULT.search(joined)
    ):
        return None

    def fault(token: str) -> str | None:
        if not token or _ID_FAULT.search(token):
            return _ID_RULE.format(what, token)
        return _ID_HASH.format(what, token) if token.startswith("#") else None

    return _first_fault(ids, np.arange(len(ids)) if code is None else code, fault)


def _id_strings(values) -> list[str]:
    """Values as Python strings, read before a ``str_`` column drops trailing NULs."""
    if isinstance(values, np.ndarray) and values.dtype.kind == "U":
        return values.tolist()
    return list(map(str, values))


@dataclass(frozen=True, eq=False, init=False)
class Corpus:
    """An immutable corpus as columns, one row per utterance.

    ``utt_id``, ``spk_id`` and ``gender`` are string arrays beside an (N, D)
    float64 matrix, given as ``vectors`` and returned by ``matrix()``; all
    are read-only, and every id passes the id rule. Empty corpora are
    representable (splits may produce them) but the file loaders and all
    consumers that need data reject them.
    """

    name: str
    utt_id: np.ndarray
    spk_id: np.ndarray
    gender: np.ndarray

    def __init__(self, name, utt_id, spk_id, gender, vectors):
        self._build(name, utt_id, spk_id, gender, vectors, lambda row: f"corpus {name!r}: ")

    def _build(self, name, utt_id, spk_id, gender, vectors, where, error=None) -> None:
        """Check the columns, as ``_check_rows`` with ``where`` and ``error``, and set them."""
        columns = (_column(utt_id, np.str_, "utt_id"), _column(spk_id, np.str_, "spk_id"),
                   _column(gender, np.str_, "gender"))
        matrix = np.asarray(vectors, dtype=np.float64)
        if matrix.ndim != 2:
            raise ValueError(f"corpus {name!r}: vectors must be an (N, D) matrix")
        _check_lengths(*columns, matrix)
        _check_rows((utt_id, spk_id, gender), columns, matrix, where, error)
        for field, value in zip(("name", "utt_id", "spk_id", "gender", "_matrix"),
                                (name, *columns, _read_only(matrix))):
            object.__setattr__(self, field, value)

    def __len__(self) -> int:
        return len(self.utt_id)

    @property
    def records(self) -> tuple[Row, ...]:
        """Per-utterance rows, derived from the columns on each access."""
        return tuple(map(Row, self.utt_id.tolist(), self.spk_id.tolist(),
                         self.gender.tolist(), self._matrix))

    @property
    def dim(self) -> int:
        if not len(self):
            raise ValueError(f"corpus {self.name!r} is empty, dimension undefined")
        return int(self._matrix.shape[1])

    def matrix(self) -> np.ndarray:
        """All vectors as one read-only (N, D) float64 array."""
        if not len(self):
            raise ValueError(f"corpus {self.name!r} is empty")
        return self._matrix

    def speaker_rows(self, sort: bool = False) -> tuple[np.ndarray, list[np.ndarray]]:
        """Distinct speaker ids and, for each, its row indices in corpus order.

        Speakers come in first-appearance order, or in id order with ``sort``.
        """
        speakers, first, code = np.unique(self.spk_id, return_index=True, return_inverse=True)
        order = np.argsort(code, kind="stable")
        ends = np.cumsum(np.bincount(code)).tolist()
        rows = [order[start:end] for start, end in zip([0] + ends, ends)]
        if sort:
            return speakers, rows
        appearance = np.argsort(first)
        return speakers[appearance], [rows[i] for i in appearance]

    def speaker_gender(self) -> dict[str, str]:
        return dict(zip(self.spk_id.tolist(), self.gender.tolist()))


def _read_only(array: np.ndarray) -> np.ndarray:
    """``array`` itself if it is read-only, else a read-only copy."""
    if array.flags.writeable:
        array = array.copy()
        array.flags.writeable = False
    return array


def _column(values, dtype, what: str) -> np.ndarray:
    """A read-only 1-D column; arrays that are already read-only are shared."""
    col = np.asarray(values, dtype=dtype)
    if col.ndim != 1:
        raise ValueError(f"{what} must be a 1-D column")
    return _read_only(col)


def _check_lengths(*columns) -> None:
    if len({len(c) for c in columns}) > 1:
        raise ValueError(f"columns differ in length: {[len(c) for c in columns]}")


def _first_repeat(keys: np.ndarray) -> int:
    """Index of the first key equal to an earlier key, or -1 if all differ."""
    order = np.argsort(keys, kind="stable")
    repeats = order[1:][keys[order[1:]] == keys[order[:-1]]]
    return int(repeats.min()) if repeats.size else -1


def index_in(keys: np.ndarray, ids: np.ndarray) -> np.ndarray:
    """Position of each key in ``ids`` (whose entries are unique), -1 where absent."""
    if len(ids) == 0:
        return np.full(len(keys), -1, dtype=np.intp)
    order = np.argsort(ids, kind="stable")
    pos = order[np.searchsorted(ids, keys, sorter=order).clip(max=len(ids) - 1)]
    return np.where(ids[pos] == keys, pos, -1)


# values gathered at a time by group_means; a larger group is gathered alone
_GROUP_BLOCK = 1 << 15


def group_means(x: np.ndarray, groups) -> np.ndarray:
    """The mean of ``x``'s rows in each non-empty group of row indices, one row per group.

    Each group's rows are added in the given order and the sum divided once,
    as numpy reduces ``x[rows].mean(axis=0)``, so for two or more columns the
    two agree bit for bit; a one-column mean is summed pairwise by numpy.
    """
    sizes = np.fromiter(map(len, groups), np.intp, len(groups))
    width = int(sizes.max())
    pad = np.arange(width) >= sizes[:, None]
    rows = np.zeros(pad.shape, np.intp)
    rows[~pad] = np.concatenate(groups)
    step = max(1, _GROUP_BLOCK // (width * x.shape[1]))
    total = np.empty((len(groups), x.shape[1]))
    for start in range(0, len(groups), step):
        block = x[rows[start : start + step]]
        # padding adds -0.0 after a group's rows, which changes no sum, not even a -0.0
        block[pad[start : start + step]] = -0.0
        total[start : start + step] = block.sum(axis=1)
    return total / sizes[:, None]


def _code(tokens: list[str]) -> tuple[list[str], np.ndarray]:
    """The distinct tokens in sorted order, and each token's index among them."""
    vocab = sorted(set(tokens))
    index = dict(zip(vocab, range(len(vocab))))
    return vocab, np.fromiter(map(index.__getitem__, tokens), np.intp, len(tokens))


def _code_column(values, what: str) -> tuple[list[str], np.ndarray]:
    _column(values, np.str_, what)  # checks the shape; the codes come from the Python strings
    return _code(_id_strings(values))


def _vocab_column(vocab, code, what: str) -> tuple[np.ndarray, np.ndarray]:
    """The ids of the sorted, distinct ``vocab`` that ``code`` uses, and the codes
    renumbered into them; both read-only. Every id must pass the id rule."""
    ids = _id_strings(vocab)
    vocab = _column(vocab, np.str_, f"{what} vocabulary")
    fault = _id_fault(ids, what)
    if fault is not None:
        raise ValueError(fault[1])
    if (vocab[1:] <= vocab[:-1]).any():
        raise ValueError(f"{what} vocabulary must be sorted and distinct")
    code = np.asarray(code)
    if code.ndim != 1 or (code.size and code.dtype.kind not in "iu"):
        raise ValueError(f"{what} codes must be a 1-D integer column")
    code = code.astype(np.intp, copy=False)
    if code.size and (code.min() < 0 or code.max() >= len(vocab)):
        raise ValueError(f"{what} codes must index its vocabulary")
    used = np.bincount(code, minlength=len(vocab)).astype(np.bool_)
    if not used.all():
        vocab, code = _read_only(vocab[used]), (np.cumsum(used) - 1)[code]
    return vocab, _read_only(code)


def _pair_codes(spk_code: np.ndarray, utt_code: np.ndarray, n_utts: int) -> np.ndarray:
    """One int64 per (enroll_spk, test_utt) pair; equal pairs get equal codes."""
    return spk_code.astype(np.int64) * n_utts + utt_code


@dataclass(frozen=True, eq=False, init=False)
class TrialList:
    """Labeled verification trials; (enroll_spk, test_utt) pairs are unique.

    ``TrialList(enroll_spk, test_utt, is_target)`` codes two string columns,
    and ``from_codes`` builds from codes. ``spk_vocab`` and ``utt_vocab``
    hold the distinct enrollment speakers and test utterances in use,
    sorted, and every id passes the id rule; ``spk_code`` and ``utt_code``
    index them row by row, beside the boolean ``is_target``. ``enroll_spk``
    and ``test_utt`` are the string columns, derived from the codes on each
    access. All arrays are read-only.
    """

    spk_vocab: np.ndarray
    spk_code: np.ndarray
    utt_vocab: np.ndarray
    utt_code: np.ndarray
    is_target: np.ndarray

    def __init__(self, enroll_spk, test_utt, is_target):
        self._build(*_code_column(enroll_spk, "enroll_spk"),
                    *_code_column(test_utt, "test_utt"), is_target)

    @classmethod
    def from_codes(cls, spk_vocab, spk_code, utt_vocab, utt_code, is_target) -> "TrialList":
        """Build from sorted, distinct id vocabularies and each row's codes into
        them. Ids no row uses are dropped."""
        trials = cls.__new__(cls)
        trials._build(spk_vocab, spk_code, utt_vocab, utt_code, is_target)
        return trials

    def _build(self, spk_vocab, spk_code, utt_vocab, utt_code, is_target,
               where=lambda row: "") -> None:
        """Check the columns and set them; a repeated pair's message is prefixed by
        ``where(row)``."""
        labels = np.asarray(is_target)
        if labels.size and labels.dtype != np.bool_:
            raise ValueError(f"is_target must be boolean, got dtype {labels.dtype}")
        is_target = _column(labels, np.bool_, "is_target")
        spk = _vocab_column(spk_vocab, spk_code, "enroll_spk")
        utt = _vocab_column(utt_vocab, utt_code, "test_utt")
        _check_lengths(spk[1], utt[1], is_target)
        for name, value in zip(("spk_vocab", "spk_code", "utt_vocab", "utt_code", "is_target"),
                               (*spk, *utt, is_target)):
            object.__setattr__(self, name, value)
        dup = _first_repeat(self._pair_codes())
        if dup >= 0:
            raise ValueError(f"{where(dup)}duplicate trial pair {self.pair(dup)}")

    def __eq__(self, other) -> bool:
        return type(other) is TrialList and all(
            np.array_equal(getattr(self, f.name), getattr(other, f.name)) for f in fields(self)
        )

    def __len__(self) -> int:
        return len(self.spk_code)

    @property
    def enroll_spk(self) -> np.ndarray:
        return _read_only(self.spk_vocab[self.spk_code])

    @property
    def test_utt(self) -> np.ndarray:
        return _read_only(self.utt_vocab[self.utt_code])

    def pair(self, i: int) -> tuple[str, str]:
        """The (enroll_spk, test_utt) ids of row ``i``."""
        return str(self.spk_vocab[self.spk_code[i]]), str(self.utt_vocab[self.utt_code[i]])

    def _pair_codes(self) -> np.ndarray:
        return _pair_codes(self.spk_code, self.utt_code, len(self.utt_vocab))

    @property
    def n_target(self) -> int:
        return int(np.count_nonzero(self.is_target))

    @property
    def n_nontarget(self) -> int:
        return len(self) - self.n_target


@dataclass(frozen=True, eq=False)
class ScoreSet:
    """Verification LLR scores: ``score`` holds one finite float64 per trial of
    ``trials``, in its order, and is read-only."""

    trials: TrialList
    score: np.ndarray

    def __post_init__(self):
        score = _column(self.score, np.float64, "score")
        _check_lengths(self.trials.spk_code, score)
        bad = np.flatnonzero(~np.isfinite(score))
        if bad.size:
            raise ValueError("score for ({}, {}) is not finite".format(*self.trials.pair(bad[0])))
        object.__setattr__(self, "score", score)

    def __eq__(self, other) -> bool:
        return (type(other) is ScoreSet and self.trials == other.trials
                and np.array_equal(self.score, other.score))

    def __len__(self) -> int:
        return len(self.score)


def _format_coord(value: float) -> str:
    # positional notation, up to 9 significant digits, never scientific
    return np.format_float_positional(
        value, precision=9, unique=True, fractional=False, trim="-"
    )


def load_embeddings(path, format: str = "text") -> Corpus:
    """Load a corpus from a text or binary embedding file."""
    path = Path(path)
    loader = {"text": _load_text, "binary": _load_binary}.get(format)
    if loader is None:
        raise ValueError(f"unknown embedding format {format!r}")
    *columns, where, error = loader(path)
    corpus = Corpus.__new__(Corpus)
    # an earlier row's fault is reported before the walk's fault, a repeat after it
    corpus._build(path.stem, *columns, where, error)
    if not len(corpus):
        raise ValueError(f"{path}: empty corpus")
    return corpus


def read_utf8(path, fault=ValueError) -> str:
    """The text of a UTF-8 file; a byte that does not decode raises ``fault("path: ...")``."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise fault(f"{path}: {exc}") from None


def _load_text(path: Path):
    """The utt, spk and gender columns and the vector matrix of a text file, the
    ``path:line`` prefix of each row, and the first malformed line's fault."""
    utts, spks, genders, vectors, linenos = [], [], [], [], []
    dim = error = None
    text = read_utf8(path)
    try:
        for lineno, line in enumerate(text.split("\n"), start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            fields = stripped.split()
            if len(fields) < 4:
                raise ValueError(
                    f"{path}:{lineno}: expected 'utt spk gender v1 ...', "
                    f"got {len(fields)} fields"
                )
            utt_id, spk_id, gender = fields[0], fields[1], fields[2]
            try:
                vector = [float(tok) for tok in fields[3:]]
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: bad coordinate: {exc}") from None
            if dim is None:
                dim = len(vector)
            elif len(vector) != dim:
                raise ValueError(
                    f"{path}:{lineno}: dimension mismatch, expected {dim} coordinates, "
                    f"got {len(vector)}"
                )
            utts.append(utt_id)
            spks.append(spk_id)
            genders.append(gender)
            vectors.append(vector)
            linenos.append(lineno)
    except ValueError as exc:
        error = exc
    matrix = np.array(vectors, dtype=np.float64).reshape(len(utts), dim or 0)
    return utts, spks, genders, matrix, lambda row: f"{path}:{linenos[row]}: ", error


def _load_binary(path: Path):
    """The columns of a binary file, the ``path: record i`` prefix of each row and
    the walk's fault: ids walked record by record, vectors joined at once."""
    blob = Path(path).read_bytes()
    if len(blob) < 12 or blob[:4] != _BINARY_MAGIC:
        raise ValueError(f"{path}: not a binary embedding file (bad magic)")
    dim, count = struct.unpack_from("<II", blob, 4)
    u16, u8 = struct.Struct("<H").unpack_from, struct.Struct("<B").unpack_from
    width, offset, view = 8 * dim, 12, memoryview(blob)
    utts, spks, genders, starts = [], [], [], []
    error = None
    try:
        for i in range(count):
            (id_len,) = u16(blob, offset)
            start, offset = offset + 2, offset + 2 + id_len
            utt_id = blob[start:offset].decode("utf-8")
            (spk_len,) = u16(blob, offset)
            start, offset = offset + 2, offset + 2 + spk_len
            spk_id = blob[start:offset].decode("utf-8")
            (gender_code,) = u8(blob, offset)
            offset += 1
            if gender_code not in (0, 1):
                raise ValueError(f"{path}: record {i}: bad gender byte {gender_code}")
            if offset + width > len(blob):
                raise ValueError(f"{path}: record {i}: truncated vector")
            utts.append(utt_id)
            spks.append(spk_id)
            genders.append(GENDERS[gender_code])
            starts.append(offset)
            offset += width
    except (ValueError, struct.error) as exc:
        error = exc
    vectors = b"".join([view[i : i + width] for i in starts])
    matrix = np.frombuffer(vectors, dtype="<f8").reshape(len(utts), dim)
    if isinstance(error, (struct.error, UnicodeDecodeError)):
        error = ValueError(f"{path}: truncated or corrupt record {len(utts)}: {error}")
    elif error is None and offset != len(blob):
        error = ValueError(f"{path}: {len(blob) - offset} trailing bytes after {count} records")
    return utts, spks, genders, matrix, lambda row: f"{path}: record {row}: ", error


def save_embeddings(corpus: Corpus, path, format: str = "text") -> None:
    """Write a corpus; binary round-trips bit exactly, text to 9 significant digits."""
    if len(corpus) == 0:
        raise ValueError("cannot save an empty corpus")
    path = Path(path)
    rows = zip(corpus.utt_id.tolist(), corpus.spk_id.tolist(), corpus.gender.tolist())
    if format == "text":
        lines = [
            f"{utt} {spk} {gender} {' '.join(map(_format_coord, vec))}\n"
            for (utt, spk, gender), vec in zip(rows, corpus.matrix())
        ]
        path.write_text("".join(lines), encoding="utf-8")
    elif format == "binary":
        vectors = np.ascontiguousarray(corpus.matrix(), dtype="<f8").tobytes()
        width = 8 * corpus.dim
        u16 = struct.Struct("<H").pack
        parts = [_BINARY_MAGIC, struct.pack("<II", corpus.dim, len(corpus))]
        for i, (utt_id, spk_id, gender) in enumerate(rows):
            utt, spk = utt_id.encode("utf-8"), spk_id.encode("utf-8")
            if len(utt) > 0xFFFF or len(spk) > 0xFFFF:
                raise ValueError(f"id too long for binary format: {utt_id!r}")
            parts += (u16(len(utt)), utt, u16(len(spk)), spk, _GENDER_BYTE[gender],
                      vectors[i * width : (i + 1) * width])
        path.write_bytes(b"".join(parts))
    else:
        raise ValueError(f"unknown embedding format {format!r}")


@dataclass(frozen=True)
class TrialPolicy:
    """Rules for trial generation.

    Impostor pairs are same-gender unless ``same_gender_only`` is off.
    ``max_nontargets`` caps the impostor count by seeded subsampling of the
    exhaustive candidate list; ``None`` keeps all candidates.
    """

    same_gender_only: bool = True
    max_nontargets: int | None = None
    seed: int = 0

    def __post_init__(self):
        if self.max_nontargets is not None and self.max_nontargets < 0:
            raise ValueError("max_nontargets must be non-negative")


def make_trials(enroll: Corpus, trial: Corpus, policy: TrialPolicy | None = None) -> TrialList:
    """Enumerate target and impostor trials between two corpora.

    Targets pair each enrollment speaker with every trial utterance of the
    same speaker, excluding utterances that also appear in that speaker's
    enrollment set. Impostors pair enrollment speakers with other speakers'
    trial utterances per the policy. Both groups run speaker by speaker in
    sorted order, each speaker's utterances in utt_id order; targets come
    first.
    """
    policy = policy or TrialPolicy()
    if len(enroll) == 0 or len(trial) == 0:
        raise ValueError("enrollment and trial corpora must be non-empty")
    if enroll.dim != trial.dim:
        raise ValueError(
            f"dimension mismatch: enrollment D={enroll.dim}, trial D={trial.dim}"
        )

    speakers, first = np.unique(enroll.spk_id, return_index=True)
    by_utt = np.argsort(trial.utt_id, kind="stable")
    utts, utt_spk = trial.utt_id[by_utt], trial.spk_id[by_utt]
    # a trial utterance also enrolled for its own speaker never makes a target
    owner = index_in(utts, enroll.utt_id)
    enrolled = (owner >= 0) & (enroll.spk_id[owner] == utt_spk)

    # (speaker, utterance) masks; row-major nonzero keeps the enumeration order
    same = speakers[:, None] == utt_spk[None, :]
    target = same & ~enrolled[None, :]
    for spk in speakers[~target.any(axis=1)].tolist():
        warnings.warn(f"enrollment speaker {spk!r} has no trial utterances")
    impostor = ~same
    if policy.same_gender_only:
        impostor &= enroll.gender[first][:, None] == trial.gender[by_utt][None, :]

    tar_rows, tar_cols = np.nonzero(target)
    non_rows, non_cols = np.nonzero(impostor)
    if policy.max_nontargets is not None and policy.max_nontargets < len(non_rows):
        rng = np.random.default_rng(policy.seed)
        keep = np.sort(rng.choice(len(non_rows), size=policy.max_nontargets, replace=False))
        non_rows, non_cols = non_rows[keep], non_cols[keep]
    return TrialList.from_codes(
        speakers, np.concatenate([tar_rows, non_rows]),
        utts, np.concatenate([tar_cols, non_cols]),
        np.arange(len(tar_rows) + len(non_rows)) < len(tar_rows),
    )


def _write_rows(path, *columns) -> None:
    """Write rows as fields joined by one space, one row per line."""
    text = "\n".join(map(" ".join, zip(*columns)))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n" if text else text)


def _saved_fields(text: str) -> list[str] | None:
    """The fields of a text in the layout the savers write, else None: three
    fields joined by single spaces on each line, each line ended by "\n", none
    starting with "#". A text with other space or newline counts is not split;
    nor is one with a control character, which no valid file holds."""
    lines = text.count("\n")
    # most files hold no "#", and one-character search is the fastest
    if (text.count(" ") != 2 * lines or not text.endswith("\n")
            or "#" in text and (text.startswith("#") or "\n#" in text)):
        return None
    fields = text.split()
    # so each field is followed by one space or newline, 3 * lines in all ...
    if len(fields) != 3 * lines or len("".join(fields)) + len(fields) != len(text):
        return None
    # ... and each third is the newline. A multibyte UTF-8 character holds no byte
    # up to 32; a control character in a field would put one byte too many before
    # the last newline
    codes = np.frombuffer(text.encode("utf-8"), np.uint8)
    return fields if (codes[codes <= 32][2::3] == 10).all() else None


def _read_table(path: Path, layout: str, parse_column, trials=None):
    """The coded id columns of a trial or score file, its third column and the
    line of each row. A text in the saved layout is split whole (row i is on
    line i + 1), any other by ``_walk_lines``. ``parse_column(fields)`` gives the
    third column and its first bad row with the message, or None. The id rule
    runs once per distinct id. The first faulty row is reported, on a tie its
    first faulty field, and only then the walk's fault. If the id columns hold
    ``trials``' ids row by row, the ids are None: they are that list's, so they
    pass the id rule and need no coding."""
    text = read_utf8(path)
    fields = _saved_fields(text)
    fields, linenos, error = (_walk_lines(path, text, layout) if fields is None
                              else (fields, range(1, len(fields) // 3 + 1), None))
    spk, utt = fields[0::3], fields[1::3]
    values, fault = parse_column(fields)
    if (fault is None and error is None and trials is not None and len(spk) == len(trials) > 0
            and trials.pair(0) == (spk[0], utt[0]) and [spk, utt] == _row_ids(trials)):
        return None, values, linenos
    (spk_vocab, spk_code), (utt_vocab, utt_code) = _code(spk), _code(utt)
    # checked before load_scores makes string arrays, which drop trailing NULs ("u\0" is "u")
    faults = [f for f in (_id_fault(spk_vocab, "enroll_spk", spk_code),
                          _id_fault(utt_vocab, "test_utt", utt_code), fault) if f]
    if faults:
        row, message = min(faults, key=lambda f: f[0])
        raise ValueError(f"{path}:{linenos[row]}: {message}")
    if error is not None:
        raise error
    return (spk_vocab, spk_code, utt_vocab, utt_code), values, linenos


def _walk_lines(path: Path, text: str, layout: str):
    """The fields of a trial or score text's rows up to its first line without
    three fields, the line of each row, and that line's fault or None. Blank
    and ``#`` comment lines (their first field starts with "#") are skipped."""
    fields, linenos = [], []
    for lineno, line in enumerate(text.split("\n"), start=1):
        row = line.split()
        if not row or row[0].startswith("#"):
            continue
        if len(row) != 3:
            return fields, linenos, ValueError(f"{path}:{lineno}: expected '{layout}'")
        fields += row
        linenos.append(lineno)
    return fields, linenos, None


def _first_fault(vocab: list[str], code: np.ndarray, fault) -> tuple[int, str] | None:
    """The first row whose token ``fault`` rejects and its message, or None;
    ``code`` indexes each row's token in ``vocab``, and ``fault`` runs once
    per entry of ``vocab``."""
    bad = [i for i, token in enumerate(vocab) if fault(token)]
    row = int(np.argmax(np.isin(code, bad))) if bad else None
    return None if row is None else (row, fault(vocab[code[row]]))


def _parse_labels(fields: list[str]) -> tuple[np.ndarray, tuple[int, str] | None]:
    vocab, code = _code(fields[2::3])
    fault = _first_fault(vocab, code,
                         lambda label: None if label in LABELS else f"bad label {label!r}")
    return np.array([label == "target" for label in vocab], bool)[code], fault


def _parse_scores(fields: list[str]) -> tuple[np.ndarray, tuple[int, str] | None]:
    """The score column and its first bad row with the message, or None: a token
    ``float`` rejects or a non-finite score. Only a failed one-pass parse walks."""
    tokens, fault = fields[2::3], None
    try:
        score = np.fromiter(map(float, tokens), np.float64, len(tokens))
    except ValueError:
        score = []
        try:
            for token in tokens:
                score.append(float(token))
        except ValueError:
            fault = len(score), f"bad score {token!r}"
        score = np.array(score, np.float64)
    bad = np.flatnonzero(~np.isfinite(score))
    if bad.size:
        row = int(bad[0])
        fault = row, f"score for ({fields[3 * row]}, {fields[3 * row + 1]}) is not finite"
    return score, fault


def _row_ids(trials: TrialList) -> list[list[str]]:
    """The enroll_spk and test_utt ids of every row, as two lists of strings."""
    return [list(map(vocab.tolist().__getitem__, code.tolist()))
            for vocab, code in ((trials.spk_vocab, trials.spk_code),
                                (trials.utt_vocab, trials.utt_code))]


def save_trials(trials: TrialList, path) -> None:
    _write_rows(path, *_row_ids(trials), np.where(trials.is_target, "target", "nontarget").tolist())


def load_trials(path) -> TrialList:
    path = Path(path)
    ids, is_target, linenos = _read_table(path, "spk utt label", _parse_labels)
    if not len(is_target):
        raise ValueError(f"{path}: empty trial list")
    trials = TrialList.__new__(TrialList)
    trials._build(*ids, is_target, lambda row: f"{path}:{linenos[row]}: ")
    return trials


def save_scores(scores: ScoreSet, path) -> None:
    rows = zip(*_row_ids(scores.trials), scores.score.tolist())
    text = ("%s %s %.6f\n" * len(scores)) % tuple(chain.from_iterable(rows))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def load_scores(path, trials: TrialList) -> ScoreSet:
    """Read a score file, joining each score to its (enroll_spk, test_utt) pair
    among ``trials``' rows; the result keeps file order. A malformed line (a
    non-finite score included) is reported first, wherever it is; only a file
    with none is rejected at its first line whose pair is absent from
    ``trials`` or takes a row an earlier line took. A file in ``trials``' row
    order, as ``save_scores`` writes it, keeps ``trials`` itself."""
    path = Path(path)
    ids, score, linenos = _read_table(path, "spk utt score", _parse_scores, trials)
    if not len(score):
        raise ValueError(f"{path}: empty score file")
    if ids is None:
        return ScoreSet(trials, score)
    spk_vocab, spk_code, utt_vocab, utt_code = ids
    spk = index_in(np.array(spk_vocab, np.str_), trials.spk_vocab)[spk_code]
    utt = index_in(np.array(utt_vocab, np.str_), trials.utt_vocab)[utt_code]
    keys = np.where((spk < 0) | (utt < 0), -1, _pair_codes(spk, utt, len(trials.utt_vocab)))
    row = index_in(keys, trials._pair_codes())
    # an absent line's row is -1, so only a later absent line repeats it
    absent, dup = np.flatnonzero(row < 0), _first_repeat(row)
    if absent.size and (dup < 0 or absent[0] < dup):
        line = absent[0]
        pair = (spk_vocab[spk_code[line]], utt_vocab[utt_code[line]])
        raise ValueError(f"{path}:{linenos[line]}: score pair {pair} not present in trial list")
    if dup >= 0:
        raise ValueError(f"{path}:{linenos[dup]}: duplicate score pair {trials.pair(row[dup])}")
    return ScoreSet(TrialList.from_codes(trials.spk_vocab, trials.spk_code[row], trials.utt_vocab,
                                         trials.utt_code[row], trials.is_target[row]), score)
