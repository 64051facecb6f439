import lazyfatpandas.pandas as pd
pd.analyze()
df = pd.read_csv('ais.csv')
df = df[df.sog > 0.5]
g = df.groupby(['vessel_type'])['sog'].mean()
print(g)
n = len(df)
print(f'moving positions: {n}')
