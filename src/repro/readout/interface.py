"""The sensor's register frame as transported over the TSV bus.

Each sensor site publishes one fixed-width frame per conversion.  The frame
layout mirrors a realistic register map: identification, three measurement
codes, a status nibble and even parity.  The TSV bus substrate
(:mod:`repro.tsv.bus`) moves these frames between tiers and may corrupt
them; the parity bit is what lets the aggregator detect that.

Frame layout, MSB first (40 bits):

    [39:34] die_id     (6)
    [33:22] vtn_code   (12)  signed millivolt offset, two's complement
    [21:10] vtp_code   (12)  signed millivolt offset, two's complement
    [9:2]   temp_code  (8)   degrees Celsius + 40, saturating
    [1]     valid      (1)
    [0]     parity     (1)   even parity over bits [39:1]
"""

from __future__ import annotations

from dataclasses import dataclass

FRAME_BITS = 40
_DIE_BITS = 6
_VT_BITS = 12
_TEMP_BITS = 8

# Scale: V_t codes are in tenths of a millivolt to preserve the sensor's
# sub-millivolt resolution across the digital interface.
VT_CODE_LSB_V = 1e-4
TEMP_CODE_OFFSET_C = 40.0


@dataclass(frozen=True, init=False)
class SensorFrame:
    """One decoded sensor frame.

    Attributes:
        die_id: Tier identifier (0-63).
        dvtn: Extracted NMOS threshold shift in volts.
        dvtp: Extracted PMOS threshold-magnitude shift in volts.
        temperature_c: Temperature reading in Celsius.
        valid: Whether the sensor marked the conversion valid.

    The threshold shifts and the temperature are stored as ``float``
    whatever numeric type the caller passes.
    """

    die_id: int
    dvtn: float
    dvtp: float
    temperature_c: float
    valid: bool = True

    def __init__(
        self,
        die_id: int,
        dvtn: float,
        dvtp: float,
        temperature_c: float = 0.0,
        valid: bool = True,
    ) -> None:
        object.__setattr__(self, "die_id", die_id)
        object.__setattr__(self, "dvtn", float(dvtn))
        object.__setattr__(self, "dvtp", float(dvtp))
        object.__setattr__(self, "temperature_c", float(temperature_c))
        object.__setattr__(self, "valid", valid)


class FrameError(ValueError):
    """A frame failed structural or parity checks."""


def _to_twos_complement(value: int, bits: int) -> int:
    lo, hi = -(1 << (bits - 1)), (1 << (bits - 1)) - 1
    clamped = max(lo, min(hi, value))
    return clamped & ((1 << bits) - 1)

def _from_twos_complement(raw: int, bits: int) -> int:
    if raw >= 1 << (bits - 1):
        return raw - (1 << bits)
    return raw


def _parity(bits: int) -> int:
    return bin(bits).count("1") & 1


def encode_frame(frame: SensorFrame) -> int:
    """Encode a :class:`SensorFrame` into its 40-bit wire representation."""
    if not 0 <= frame.die_id < (1 << _DIE_BITS):
        raise FrameError(f"die_id {frame.die_id} does not fit in {_DIE_BITS} bits")
    vtn_code = _to_twos_complement(round(frame.dvtn / VT_CODE_LSB_V), _VT_BITS)
    vtp_code = _to_twos_complement(round(frame.dvtp / VT_CODE_LSB_V), _VT_BITS)
    temp_raw = round(frame.temperature_c + TEMP_CODE_OFFSET_C)
    temp_code = max(0, min((1 << _TEMP_BITS) - 1, temp_raw))

    word = frame.die_id
    word = (word << _VT_BITS) | vtn_code
    word = (word << _VT_BITS) | vtp_code
    word = (word << _TEMP_BITS) | temp_code
    word = (word << 1) | (1 if frame.valid else 0)
    word = (word << 1) | _parity(word)
    return word


def decode_frame(word: int) -> SensorFrame:
    """Decode a 40-bit wire word, raising :class:`FrameError` on corruption."""
    if not 0 <= word < (1 << FRAME_BITS):
        raise FrameError(f"word does not fit in {FRAME_BITS} bits")
    parity = word & 1
    payload = word >> 1
    if _parity(payload) != parity:
        raise FrameError("parity mismatch: frame corrupted in transit")

    valid = bool(payload & 1)
    payload >>= 1
    temp_code = payload & ((1 << _TEMP_BITS) - 1)
    payload >>= _TEMP_BITS
    vtp_code = payload & ((1 << _VT_BITS) - 1)
    payload >>= _VT_BITS
    vtn_code = payload & ((1 << _VT_BITS) - 1)
    payload >>= _VT_BITS
    die_id = payload

    return SensorFrame(
        die_id=die_id,
        dvtn=_from_twos_complement(vtn_code, _VT_BITS) * VT_CODE_LSB_V,
        dvtp=_from_twos_complement(vtp_code, _VT_BITS) * VT_CODE_LSB_V,
        temperature_c=temp_code - TEMP_CODE_OFFSET_C,
        valid=valid,
    )
