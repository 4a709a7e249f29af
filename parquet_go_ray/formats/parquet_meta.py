"""Parquet footer/page-header struct specs (public parquet-format IDL).

Field ids and types transcribed from the Apache parquet-format thrift IDL —
the same wire structs the reference's generated bindings serialize
(reference: parquet/parquet.go; footer assembly writer/writer.go:206-223).
Only the fields this engine reads/writes are declared; CompactReader skips
anything else (foreign writers' statistics, bloom filters, column indexes).
"""

from __future__ import annotations

# -- enums (plain ints on the wire) -----------------------------------------

PT_BOOLEAN, PT_INT32, PT_INT64, PT_INT96, PT_FLOAT, PT_DOUBLE, PT_BYTE_ARRAY, PT_FLBA = range(8)

REP_REQUIRED, REP_OPTIONAL, REP_REPEATED = range(3)

ENC_PLAIN = 0
ENC_PLAIN_DICTIONARY = 2
ENC_RLE = 3
ENC_BIT_PACKED = 4
ENC_DELTA_BINARY_PACKED = 5
ENC_DELTA_LENGTH_BYTE_ARRAY = 6
ENC_DELTA_BYTE_ARRAY = 7
ENC_RLE_DICTIONARY = 8
ENC_BYTE_STREAM_SPLIT = 9

COMP_UNCOMPRESSED = 0
COMP_SNAPPY = 1
COMP_GZIP = 2
COMP_LZO = 3
COMP_BROTLI = 4
COMP_LZ4 = 5
COMP_ZSTD = 6
COMP_LZ4_RAW = 7

PAGE_DATA = 0
PAGE_INDEX = 1
PAGE_DICTIONARY = 2
PAGE_DATA_V2 = 3

BO_UNORDERED, BO_ASCENDING, BO_DESCENDING = range(3)

CONV_UTF8 = 0
CONV_MAP = 1
CONV_MAP_KEY_VALUE = 2
CONV_LIST = 3
CONV_DATE = 6
CONV_TIME_MILLIS = 7
CONV_TIME_MICROS = 8
CONV_TIMESTAMP_MILLIS = 9
CONV_TIMESTAMP_MICROS = 10

# -- struct specs ------------------------------------------------------------

SPECS: dict[str, dict[int, tuple[str, str]]] = {
    "Statistics": {
        1: ("max", "binary"),  # deprecated pair: legacy writers only fill
        2: ("min", "binary"),  # these; signed order is trustworthy for
        3: ("null_count", "i64"),  # numeric physicals, undefined for strings
        4: ("distinct_count", "i64"),
        5: ("max_value", "binary"),
        6: ("min_value", "binary"),
    },
    "MilliSeconds": {},
    "MicroSeconds": {},
    "NanoSeconds": {},
    "TimeUnit": {
        1: ("MILLIS", "struct:MilliSeconds"),
        2: ("MICROS", "struct:MicroSeconds"),
        3: ("NANOS", "struct:NanoSeconds"),
    },
    "StringType": {},
    "MapType": {},
    "ListType": {},
    "DateType": {},
    "TimeType": {
        1: ("isAdjustedToUTC", "bool"),
        2: ("unit", "struct:TimeUnit"),
    },
    "TimestampType": {
        1: ("isAdjustedToUTC", "bool"),
        2: ("unit", "struct:TimeUnit"),
    },
    "IntType": {
        1: ("bitWidth", "i8"),
        2: ("isSigned", "bool"),
    },
    "LogicalType": {
        1: ("STRING", "struct:StringType"),
        2: ("MAP", "struct:MapType"),
        3: ("LIST", "struct:ListType"),
        6: ("DATE", "struct:DateType"),
        7: ("TIME", "struct:TimeType"),
        8: ("TIMESTAMP", "struct:TimestampType"),
        10: ("INTEGER", "struct:IntType"),
    },
    "SchemaElement": {
        1: ("type", "i32"),
        2: ("type_length", "i32"),
        3: ("repetition_type", "i32"),
        4: ("name", "string"),
        5: ("num_children", "i32"),
        6: ("converted_type", "i32"),
        7: ("scale", "i32"),
        8: ("precision", "i32"),
        9: ("field_id", "i32"),
        10: ("logicalType", "struct:LogicalType"),
    },
    "KeyValue": {
        1: ("key", "string"),
        2: ("value", "string"),
    },
    "PageEncodingStats": {
        1: ("page_type", "i32"),
        2: ("encoding", "i32"),
        3: ("count", "i32"),
    },
    "ColumnMetaData": {
        1: ("type", "i32"),
        2: ("encodings", "list:i32"),
        3: ("path_in_schema", "list:string"),
        4: ("codec", "i32"),
        5: ("num_values", "i64"),
        6: ("total_uncompressed_size", "i64"),
        7: ("total_compressed_size", "i64"),
        8: ("key_value_metadata", "list:struct:KeyValue"),
        9: ("data_page_offset", "i64"),
        11: ("dictionary_page_offset", "i64"),
        12: ("statistics", "struct:Statistics"),
        13: ("encoding_stats", "list:struct:PageEncodingStats"),
        14: ("bloom_filter_offset", "i64"),
        15: ("bloom_filter_length", "i32"),
    },
    "SplitBlockAlgorithm": {},
    "BloomFilterAlgorithm": {
        1: ("BLOCK", "struct:SplitBlockAlgorithm"),
    },
    "XxHash": {},
    "BloomFilterHash": {
        1: ("XXHASH", "struct:XxHash"),
    },
    "Uncompressed": {},
    "BloomFilterCompression": {
        1: ("UNCOMPRESSED", "struct:Uncompressed"),
    },
    "BloomFilterHeader": {
        1: ("numBytes", "i32"),
        2: ("algorithm", "struct:BloomFilterAlgorithm"),
        3: ("hash", "struct:BloomFilterHash"),
        4: ("compression", "struct:BloomFilterCompression"),
    },
    "ColumnChunk": {
        1: ("file_path", "string"),
        2: ("file_offset", "i64"),
        3: ("meta_data", "struct:ColumnMetaData"),
        4: ("offset_index_offset", "i64"),
        5: ("offset_index_length", "i32"),
        6: ("column_index_offset", "i64"),
        7: ("column_index_length", "i32"),
    },
    "PageLocation": {
        1: ("offset", "i64"),
        2: ("compressed_page_size", "i32"),
        3: ("first_row_index", "i64"),
    },
    "OffsetIndex": {
        1: ("page_locations", "list:struct:PageLocation"),
    },
    "ColumnIndex": {
        1: ("null_pages", "list:bool"),
        2: ("min_values", "list:binary"),
        3: ("max_values", "list:binary"),
        4: ("boundary_order", "i32"),
        5: ("null_counts", "list:i64"),
    },
    "SortingColumn": {
        1: ("column_idx", "i32"),
        2: ("descending", "bool"),
        3: ("nulls_first", "bool"),
    },
    "RowGroup": {
        1: ("columns", "list:struct:ColumnChunk"),
        2: ("total_byte_size", "i64"),
        3: ("num_rows", "i64"),
        4: ("sorting_columns", "list:struct:SortingColumn"),
        5: ("file_offset", "i64"),
        6: ("total_compressed_size", "i64"),
    },
    "TypeDefinedOrder": {},
    "ColumnOrder": {
        1: ("TYPE_ORDER", "struct:TypeDefinedOrder"),
    },
    "FileMetaData": {
        1: ("version", "i32"),
        2: ("schema", "list:struct:SchemaElement"),
        3: ("num_rows", "i64"),
        4: ("row_groups", "list:struct:RowGroup"),
        5: ("key_value_metadata", "list:struct:KeyValue"),
        6: ("created_by", "string"),
        7: ("column_orders", "list:struct:ColumnOrder"),
    },
    "DataPageHeader": {
        1: ("num_values", "i32"),
        2: ("encoding", "i32"),
        3: ("definition_level_encoding", "i32"),
        4: ("repetition_level_encoding", "i32"),
        5: ("statistics", "struct:Statistics"),
    },
    "DictionaryPageHeader": {
        1: ("num_values", "i32"),
        2: ("encoding", "i32"),
        3: ("is_sorted", "bool"),
    },
    "DataPageHeaderV2": {
        1: ("num_values", "i32"),
        2: ("num_nulls", "i32"),
        3: ("num_rows", "i32"),
        4: ("encoding", "i32"),
        5: ("definition_levels_byte_length", "i32"),
        6: ("repetition_levels_byte_length", "i32"),
        7: ("is_compressed", "bool"),
    },
    "PageHeader": {
        1: ("type", "i32"),
        2: ("uncompressed_page_size", "i32"),
        3: ("compressed_page_size", "i32"),
        4: ("crc", "i32"),
        5: ("data_page_header", "struct:DataPageHeader"),
        7: ("dictionary_page_header", "struct:DictionaryPageHeader"),
        8: ("data_page_header_v2", "struct:DataPageHeaderV2"),
    },
}
