import lazyfatpandas.pandas as pd
pd.analyze()
df = pd.read_csv('fdb.csv')
df['funding_total'] = df.funding_total.fillna(0.0)
df = df[df.founded_year >= 2000]
g = df.groupby(['state'])['funding_total'].sum()
print(g)
ops = df[df.status == 'operating']
n = len(ops)
print(f'operating startups: {n}')
