package coord

import (
	"reflect"
	"testing"
	"unsafe"
)

// TestShardStateSize pins the per-shard table entry. A coordinator keeps
// one per shard of every campaign it holds — 16,000 for a thousand
// 16-shard campaigns — so a field added here is paid for thousands of
// times over.
func TestShardStateSize(t *testing.T) {
	if got := unsafe.Sizeof(shardState{}); got > 56 {
		t.Fatalf("shardState is %d bytes, want at most 56", got)
	}
}

// TestJournalShardZero: zero must name every field of journalShard, or a
// shard whose only state is a field it leaves out would be journaled as
// untouched. Each field set alone must make the record non-zero.
func TestJournalShardZero(t *testing.T) {
	var blank journalShard
	if !blank.zero() {
		t.Fatal("the zero record is not zero")
	}
	typ := reflect.TypeOf(blank)
	for i := 0; i < typ.NumField(); i++ {
		var js journalShard
		f := reflect.ValueOf(&js).Elem().Field(i)
		switch f.Kind() {
		case reflect.Bool:
			f.SetBool(true)
		case reflect.String:
			f.SetString("x")
		case reflect.Int, reflect.Int64:
			f.SetInt(1)
		case reflect.Slice:
			f.Set(reflect.MakeSlice(f.Type(), 1, 1))
		default:
			t.Fatalf("journalShard.%s: kind %s not covered by this test", typ.Field(i).Name, f.Kind())
		}
		if js.zero() {
			t.Errorf("journalShard.%s set alone still reads as zero", typ.Field(i).Name)
		}
	}
}
