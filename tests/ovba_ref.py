"""Independent MS-OVBA compressor used only as a test oracle, and the
decompressor as it was when it decoded one token at a time.

The compressor emits real copy tokens (greedy longest match over a hash
index), so the round-trip tests exercise the decompressor's copy path, not
just literals. It is implemented from the container spec and shares no code
with the extractor. `decompress_per_token` is the extractor's old loop,
kept so that malformed containers can be compared error for error.
"""

import struct

from trap4phish.containers.errors import OvbaError

CHUNK = 4096


def _length_bits(decompressed_in_chunk: int) -> int:
    if decompressed_in_chunk <= 1:
        return 12
    bits = (decompressed_in_chunk - 1).bit_length()
    return 16 - max(bits, 4)


def compress(data: bytes) -> bytes:
    out = bytearray([0x01])
    pos = 0
    while pos < len(data):
        chunk_start = pos
        chunk_limit = min(pos + CHUNK, len(data))
        body = bytearray()
        index: dict[bytes, list[int]] = {}
        cur = pos
        while cur < chunk_limit:
            seq_start = cur
            flags = 0
            seq = bytearray()
            for bit in range(8):
                if cur >= chunk_limit:
                    break
                best_len = 0
                best_off = 0
                key = data[cur:cur + 3]
                if len(key) == 3:
                    lbits = _length_bits(cur - chunk_start)
                    max_len = min((1 << lbits) - 1 + 3, chunk_limit - cur)
                    for candidate in reversed(index.get(key, [])[-16:]):
                        length = 0
                        while (length < max_len
                               and data[candidate + length] == data[cur + length]):
                            length += 1
                        if length > best_len:
                            best_len = length
                            best_off = cur - candidate
                if best_len >= 3:
                    lbits = _length_bits(cur - chunk_start)
                    token = ((best_off - 1) << lbits) | (best_len - 3)
                    seq += struct.pack("<H", token)
                    flags |= 1 << bit
                    for k in range(best_len):
                        index.setdefault(data[cur + k:cur + k + 3], []).append(cur + k)
                    cur += best_len
                else:
                    seq.append(data[cur])
                    index.setdefault(key, []).append(cur)
                    cur += 1
            if len(body) + 1 + len(seq) > CHUNK:
                # sequence would overflow the chunk: end the chunk before it
                # (the per-chunk index dies with the chunk, so rollback is safe)
                cur = seq_start
                break
            body.append(flags)
            body += seq
        if not body:
            # a lone 8-token sequence cannot overflow 4096 bytes
            raise AssertionError("empty chunk body")
        header = (len(body) + 2 - 3) | (0b011 << 12) | (1 << 15)
        out += struct.pack("<H", header)
        out += body
        pos = cur
    return bytes(out)


def decompress_per_token(data: bytes) -> bytes:
    if not data:
        raise OvbaError("empty container")
    if data[0] != 0x01:
        raise OvbaError(f"bad container signature 0x{data[0]:02x}")
    out = bytearray()
    pos = 1
    while pos < len(data):
        if pos + 2 > len(data):
            raise OvbaError("truncated chunk header")
        header = struct.unpack_from("<H", data, pos)[0]
        chunk_size = (header & 0x0FFF) + 3
        if (header >> 12) & 0x7 != 0b011:
            raise OvbaError("bad chunk signature bits")
        compressed = (header >> 15) & 1
        chunk_end = min(len(data), pos + chunk_size)
        pos += 2
        if not compressed:
            if pos + CHUNK > len(data):
                raise OvbaError("truncated raw chunk")
            out += data[pos:pos + CHUNK]
            pos += CHUNK
            continue
        chunk_start = len(out)
        while pos < chunk_end:
            flags = data[pos]
            pos += 1
            for bit in range(8):
                if pos >= chunk_end:
                    break
                if not (flags >> bit) & 1:
                    out.append(data[pos])
                    pos += 1
                    continue
                if pos + 2 > chunk_end:
                    raise OvbaError("truncated copy token")
                token = struct.unpack_from("<H", data, pos)[0]
                pos += 2
                length_bits = _length_bits(len(out) - chunk_start)
                length = (token & ((1 << length_bits) - 1)) + 3
                offset = (token >> length_bits) + 1
                src = len(out) - offset
                if src < chunk_start:
                    raise OvbaError("copy token references before chunk window")
                for i in range(length):
                    out.append(out[src + i])
            if len(out) - chunk_start > CHUNK:
                raise OvbaError("chunk decompresses past 4096 bytes")
    return bytes(out)
